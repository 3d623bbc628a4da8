package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mto/internal/reorgd"
	"mto/internal/serve"
)

// stepRecord is one StepTenant call made while a load ran.
type stepRecord struct {
	start, end time.Duration // offsets from the load's start
	cs         reorgd.CycleStats
	err        error
}

// stepper calls StepTenant for tenant each time another 1/(steps+1) of
// total requests has completed, concurrently with the load, until done is
// closed or every step ran.
func stepper(srv *serve.Server, tenant string, steps, total int, start time.Time, completed *atomic.Int64, done <-chan struct{}) func() []stepRecord {
	var recs []stepRecord
	var wg sync.WaitGroup
	every := int64(total / (steps + 1))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for next := int64(1); next <= int64(steps); {
			if completed.Load() >= next*every {
				t0 := time.Since(start)
				cs, err := srv.StepTenant(tenant)
				recs = append(recs, stepRecord{start: t0, end: time.Since(start), cs: cs, err: err})
				next++
				continue
			}
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	return func() []stepRecord {
		wg.Wait()
		return recs
	}
}

func swaps(steps []stepRecord) int {
	n := 0
	for _, st := range steps {
		if st.cs.Action == "reorg" {
			n++
		}
	}
	return n
}

func blocksWritten(steps []stepRecord) int {
	n := 0
	for _, st := range steps {
		n += st.cs.BlocksWritten
	}
	return n
}

// swapStall is the worst latency among requests in flight during a step
// that installed a new layout generation (0 when no step swapped).
func swapStall(steps []stepRecord, plan []arrival, out []outcome) float64 {
	worst := 0.0
	for _, st := range steps {
		if st.cs.Action != "reorg" {
			continue
		}
		for i, o := range out {
			if plan[i].due < st.end && o.done > st.start && o.status == http.StatusOK {
				worst = max(worst, ms(o.latency))
			}
		}
	}
	return worst
}
