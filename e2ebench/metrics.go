package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// mirror BENCHMARK.json's end_to_end and per_layer entries; the smoke test
// holds them equal.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"qps", "1/s"},
	{"blocks_per_query", "count"},
	{"peak_heap_mb", "MB"},
	{"segment_bytes_per_row", "B/row"},
}

// workloadEndToEnd are end-to-end figures only some workloads define, so
// they cannot be BENCHMARK.json end-to-end metrics, and the open-loop
// generator's own lateness, which says whether a run's latency figures are
// valid; every run of a workload that defines them prints them (a traced
// run prints a per-layer one once, with the per-layer metrics).
var workloadEndToEnd = []metricDef{
	{"max_rate_qps", "1/s"},
	{"blocks_written_per_kq", "count"},
	{"loadgen.late_ms_p99", "ms"},
}

// perLayer are the traced run's metrics, each timed or counted at the
// boundary of one layer's public functions. A layer a workload does not
// exercise reports 0 (see README.md for which workload moves which).
var perLayer = []metricDef{
	{"core.optimize_s", "s"},
	{"core.build_design_s", "s"},
	{"layout.install_s", "s"},
	{"engine.new_ms", "ms"},
	{"engine.cold_pass_s", "s"},
	{"engine.execute_ms.p50", "ms"},
	{"engine.execute_ms.p99", "ms"},
	{"engine.ms_per_block", "ms"},
	{"engine.rows_scanned_per_q", "count"},
	{"engine.alloc_mb_per_q", "MB"},
	{"engine.after_routing_per_q", "count"},
	{"engine.after_zonemap_per_q", "count"},
	{"engine.after_dips_per_q", "count"},
	{"engine.reduce_keep_ratio", "ratio"},
	{"colstore.pool_hit_ratio", "ratio"},
	{"colstore.bytes_read_per_q", "B"},
	{"colstore.evictions_per_q", "count"},
	{"colstore.readahead_useful_ratio", "ratio"},
	{"colstore.blocks_written", "count"},
	{"serve.result_cache_hit_ratio", "ratio"},
	{"serve.server_p99_ms", "ms"},
	{"serve.queue_depth_p99", "count"},
	{"serve.p99_ms.ssb", "ms"},
	{"serve.p99_ms.tpch", "ms"},
	{"serve.p99_ms.tpcds", "ms"},
	{"serve.rejected_frac", "ratio"},
	{"serve.swap_stall_ms", "ms"},
	{"serve.max_rate_qps", "1/s"},
	{"reorgd.step_s.p50", "s"},
	{"reorgd.step_s.max", "s"},
	{"reorgd.swaps", "count"},
	{"reorgd.blocks_written_per_kq", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// report is one run's outcome: the output-check tally and every measured
// value by metric name. Values absent from the map print as 0.
type report struct {
	Attempted int64
	// Failed counts errors, rejections and output mismatches; Errors and
	// Mismatches are the ones that make the run incorrect.
	Failed     int64
	Errors     int64
	Mismatches []string
	Values     map[string]float64
	// Notes are printed beside the metric of the same name (sample counts,
	// which phase a figure comes from).
	Notes map[string]string
}

func newReport() *report {
	return &report{Values: map[string]float64{}, Notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	r.Values[name] = v
	if note != "" {
		r.Notes[name] = note
	}
}

// mismatch records one failed output check; it counts as a failed attempt.
func (r *report) mismatch(format string, args ...any) {
	r.Failed++
	if len(r.Mismatches) < 20 {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.Mismatches) == 0 && r.Errors == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes one "metric" line per value — the end-to-end metrics, the
// workload-specific end-to-end figures, and with trace the per-layer
// metrics — then the result object as the last line.
func (r *report) print(w io.Writer, trace bool) {
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "mismatch %s\n", m)
	}
	line := func(d metricDef) {
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s %s\n", d.Name, r.Values[d.Name], d.Unit, r.Notes[d.Name])
	}
	for _, d := range endToEnd {
		line(d)
	}
	failedFrac := 0.0
	if r.Attempted > 0 {
		failedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "metric %-34s %14.6g %-6s %d of %d attempts\n", "failed_frac", failedFrac, "ratio", r.Failed, r.Attempted)
	for _, d := range workloadEndToEnd {
		if _, ok := r.Values[d.Name]; ok && !(trace && slices.Contains(perLayer, d)) {
			line(d)
		}
	}
	defs := endToEnd
	if trace {
		defs = perLayer
		for _, d := range perLayer {
			line(d)
		}
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = jsonMetric{Value: r.Values[d.Name], Unit: d.Unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the middle value of xs, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample is a snapshot of the runtime counters the benchmark
// reports: cumulative heap allocation and the GC's share of CPU time.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: f(s[0].Value), gcCPU: f(s[1].Value), totalCPU: f(s[2].Value)}
}

// gcCPUFraction is the GC's share of all CPU time between two samples.
func gcCPUFraction(a, b runtimeSample) float64 {
	return ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}

// heapPeak samples the live heap (as marked by the last GC cycle) until
// stopped and keeps the maximum.
type heapPeak struct {
	mu   sync.Mutex
	max  uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			if v := s[0].Value.Uint64(); v > h.max {
				h.max = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.max) / (1 << 20)
}
