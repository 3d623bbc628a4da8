package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the program's\n%v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the program's\n%v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json %v, program runs %v", names, workloadNames())
	}
}

// runTiny runs one workload at smoke scale and returns the exit code, the
// output and the parsed last line.
func runTiny(t *testing.T, workload string, extra ...string) (int, string, jsonResult) {
	t.Helper()
	args := append([]string{"-workload", workload, "-seed", "3", "-seconds", "1", "-tiny",
		"-workdir", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), res
}

// TestSmoke runs every workload at tiny scale, untraced and traced: every
// named metric prints with its unit, the output checks pass, and the
// result object carries exactly the metrics of the run's mode.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				code, out, res := runTiny(t, w, "-trace", trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, failed %d of %d\n%s", code, res.Correct, res.Failed, res.Attempted, out)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				lines := append(append([]metricDef(nil), endToEnd...), metricDef{"failed_frac", "ratio"})
				if w == "serve-mixed" {
					lines = append(lines, workloadEndToEnd...)
				}
				for _, d := range lines {
					if !strings.Contains(out, "metric "+d.Name+" ") {
						t.Errorf("no %q line in the output", "metric "+d.Name)
					}
				}
				for _, d := range endToEnd {
					if trace == "0" && res.Metrics[d.Name].Value == 0 {
						t.Errorf("end-to-end metric %s is 0", d.Name)
					}
				}
			})
		}
	}
}

// TestInjectedMismatchFails corrupts one expected result per workload: the
// checker must catch it, report it as incorrect and exit non-zero.
func TestInjectedMismatchFails(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			code, out, res := runTiny(t, w, "-inject-mismatch")
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("injected mismatch not caught: exit %d, correct %v, failed %d\n%s", code, res.Correct, res.Failed, out)
			}
			if !strings.Contains(out, "mismatch ") {
				t.Errorf("no mismatch line in the output:\n%s", out)
			}
		})
	}
}

func TestGivenTimeLessStolenShare(t *testing.T) {
	a := cpuTimes{busy: 1000, steal: 50, ok: true}
	b := cpuTimes{busy: 1150, steal: 100, ok: true}
	if got := stolenShare(a, b); got != 0.25 {
		t.Errorf("stolenShare = %v, want 0.25 (50 stolen of 200 asked for)", got)
	}
	if got := givenTime(4*time.Second, a, b); got != 3*time.Second {
		t.Errorf("givenTime = %v, want 3s", got)
	}
	if got := givenTime(4*time.Second, cpuTimes{}, b); got != 4*time.Second {
		t.Errorf("givenTime without counters = %v, want the wall time", got)
	}
}
