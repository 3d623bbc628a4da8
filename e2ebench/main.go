// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload against the MTO stack — layout learning (core, qdtree,
// induce), layout install (layout), the columnar segment store (colstore),
// the execution engine, the multi-tenant serving frontend (serve) and the
// reorganization daemon (reorgd) — for a fixed time, checks the outputs
// outside the timed phase, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
// With -trace 1 the run additionally measures a second, freshly set-up
// system with the per-layer timers on, and the metrics are the per-layer
// ones, including the tracing overhead against the untraced phase. The
// timers wrap calls into each layer's public functions from this package.
//
// Workloads: tpch-replay and serve-mixed (see README.md). Run it
// from the repository root through run.sh, which builds it first:
//
//	bash e2ebench/run.sh --workload tpch-replay --seed 1 --seconds 10 --trace 0
//
// A failed output check prints the result with "correct": false and exits
// with status 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every input for the smoke test.
	tiny bool
	// root is the repository checkout (for the source digest); workdir
	// holds the segment stores and is removed on exit.
	root, workdir, commit string
	// injectMismatch corrupts one expected result so the output check
	// must fail (smoke test of the checker).
	injectMismatch bool
	out            io.Writer
}

var workloads = map[string]func(cfg *config, rep *report) error{
	"tpch-replay": runReplay,
	"serve-mixed": runMixed,
}

func main() {
	// A run must end within 180 s; stop a runaway one before that.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded 170 s")
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := &config{out: stdout}
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&cfg.workload, "workload", "", "workload: tpch-replay or serve-mixed")
	fl.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per phase")
	traceFlag := fl.Int("trace", 0, "1 = also run the traced phase and print the per-layer metrics")
	fl.BoolVar(&cfg.tiny, "tiny", false, "tiny inputs (smoke test)")
	fl.StringVar(&cfg.root, "root", "", "repository root, for the source digest")
	fl.StringVar(&cfg.workdir, "workdir", "", "directory for segment files (default: a temp dir)")
	fl.StringVar(&cfg.commit, "commit", "unknown", "commit being measured")
	fl.BoolVar(&cfg.injectMismatch, "inject-mismatch", false, "corrupt one expected result (checker smoke test)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag != 0
	runW, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "e2ebench: need -workload in %v and -seconds > 0\n", workloadNames())
		return 2
	}
	if cfg.workdir == "" {
		dir, err := os.MkdirTemp("", "e2ebench")
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		cfg.workdir = dir
	}
	defer os.RemoveAll(cfg.workdir)

	printEnv(cfg)
	rep := newReport()
	if err := runW(cfg, rep); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	rep.print(stdout, cfg.trace)
	if !rep.correct() {
		fmt.Fprintf(stderr, "e2ebench: %d failed of %d attempted (%d output mismatches)\n",
			rep.Failed, rep.Attempted, len(rep.Mismatches))
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printEnv records the machine, toolchain and code under measurement.
func printEnv(cfg *config) {
	env := map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"numcpu":        runtime.NumCPU(),
		"go":            runtime.Version(),
		"commit":        cfg.commit,
		"source_sha256": sourceDigest(cfg.root),
	}
	b, _ := json.Marshal(env)
	fmt.Fprintf(cfg.out, "env %s\n", b)
}

// printInputs records a workload's generated inputs and configuration.
func printInputs(cfg *config, inputs map[string]any) {
	b, _ := json.Marshal(inputs)
	fmt.Fprintf(cfg.out, "inputs %s\n", b)
}

// sourceDigest hashes every Go source and module file under root, so a
// run names the exact code it measured even outside a git checkout.
func sourceDigest(root string) string {
	if root == "" {
		return "unknown"
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
