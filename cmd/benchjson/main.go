// Command benchjson converts `go test -bench` output into a JSON snapshot.
// It echoes stdin through unchanged (so benchmark output still lands in the
// terminal or CI log) and parses Benchmark* result lines plus the goos /
// goarch / pkg / cpu header lines, writing the collected results to -out
// together with the machine's CPU count, GOMAXPROCS and Go version.
//
// benchjson runs on the machine of the `go test` it reads, so its own
// GOMAXPROCS is the one the benchmarks ran with: `go test` appends it as a
// trailing -N to every name unless it is 1, and only a suffix equal to it
// is taken for one (a sub-benchmark may end in -N itself, say parallel-8).
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./... | benchjson -out BENCH_build.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Snapshot is the file benchjson writes.
type Snapshot struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Date       string   `json:"date"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "file to write the JSON snapshot to (default stdout only)")
	flag.Parse()

	snap := Snapshot{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line, snap.GOMAXPROCS); ok {
				r.Pkg = pkg
				snap.Benchmarks = append(snap.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *out == "" {
		return
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench parses one result line of a run with the given GOMAXPROCS,
// e.g. with procs 8
//
//	BenchmarkBuild-8   120  9371002 ns/op  523120 B/op  1042 allocs/op
//
// A trailing -N is stripped from the name only when N equals procs and
// procs is not 1, the only case in which `go test` appends it.
func parseBench(line string, procs int) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	r := Result{Name: fields[0], Procs: procs}
	if suffix := "-" + strconv.Itoa(procs); procs != 1 && strings.HasSuffix(r.Name, suffix) {
		r.Name = strings.TrimSuffix(r.Name, suffix)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Result{}, false
	}
	r.NsPerOp = ns
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, true
}
