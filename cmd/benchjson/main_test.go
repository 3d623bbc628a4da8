package main

import "testing"

func TestParseBenchProcsSuffix(t *testing.T) {
	const tail = "   13  87051097 ns/op  6905064 B/op  1846 allocs/op"
	for _, tc := range []struct {
		line  string
		procs int
		name  string
	}{
		// GOMAXPROCS 1: go test appends no suffix, so a sub-benchmark's
		// own -8 is part of its name.
		{"BenchmarkWorkloadReplay/parallel-8" + tail, 1, "BenchmarkWorkloadReplay/parallel-8"},
		{"BenchmarkWorkloadReplay/parallel-8-2" + tail, 2, "BenchmarkWorkloadReplay/parallel-8"},
		{"BenchmarkBuild-8" + tail, 8, "BenchmarkBuild"},
		{"BenchmarkBuild-8" + tail, 2, "BenchmarkBuild-8"},
		{"BenchmarkBuild" + tail, 1, "BenchmarkBuild"},
	} {
		r, ok := parseBench(tc.line, tc.procs)
		if !ok {
			t.Fatalf("%q: not parsed", tc.line)
		}
		if r.Name != tc.name || r.Procs != tc.procs {
			t.Errorf("%q at GOMAXPROCS %d: name %q procs %d, want %q procs %d",
				tc.line, tc.procs, r.Name, r.Procs, tc.name, tc.procs)
		}
		if r.Iterations != 13 || r.NsPerOp != 87051097 || r.BytesPerOp != 6905064 || r.AllocsPerOp != 1846 {
			t.Errorf("%q: measurements %+v", tc.line, r)
		}
	}
	if _, ok := parseBench("BenchmarkBuild-8 FAIL", 8); ok {
		t.Error("non-result line parsed")
	}
}
