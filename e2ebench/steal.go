package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared host the hypervisor at times withholds CPU from this
// machine's processors: for minutes at a stretch, a tenth to a third of
// the time they ask for is stolen, and every timing of the run stretches
// with it. The kernel counts that time as steal in /proc/stat. The
// benchmark's work-per-time figures (qps, setup_s) therefore divide their
// work by the time the host did give: wall time times one minus the stolen
// share of the CPU time asked for. Time the program spends idle or waiting
// is not steal, so a change that makes the program wait still shows.
// Per-request latencies cannot be corrected this way and are reported as
// measured.

// cpuTimes is the machine's cumulative busy and stolen CPU time, in clock
// ticks; ok is false where /proc/stat cannot be read.
type cpuTimes struct {
	busy, steal int64
	ok          bool
}

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return cpuTimes{}
		}
	}
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7], ok: true}
}

// stolenShare is the share of the CPU time the machine's processors asked
// for between a and b that the host withheld; 0 when it is not known.
func stolenShare(a, b cpuTimes) float64 {
	if !a.ok || !b.ok {
		return 0
	}
	return ratio(float64(b.steal-a.steal), float64(b.steal-a.steal+b.busy-a.busy))
}

// givenTime is the part of the wall time d, measured between a and b, that
// the host gave the machine's processors.
func givenTime(d time.Duration, a, b cpuTimes) time.Duration {
	return time.Duration(float64(d) * (1 - stolenShare(a, b)))
}
