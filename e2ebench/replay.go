package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"time"

	"mto/internal/block"
	"mto/internal/datagen"
	"mto/internal/engine"
	"mto/internal/layout"
	"mto/internal/workload"
)

// replaySystem is one set-up of tpch-replay: the MTO design on a disk
// backend whose buffer pool holds every block, and an engine that has made
// one cold pass over the training queries.
type replaySystem struct {
	d   *deployed
	eng *engine.Engine
}

// replayPhase is one closed-loop measurement.
type replayPhase struct {
	elapsed time.Duration
	// slices is the completions per second of each slice of the phase, over
	// the time the host gave (see givenTime): a slice ends at the first
	// completion at least replaySlice after its start. stolen is each
	// slice's stolen share.
	slices, stolen []float64
	tally          engineTally
	store          block.Stats
	gcFrac         float64
	sampled        []*workload.Query
	results        []*engine.Result
}

// runReplay is the engine-bound workload: one client calls Engine.Execute
// back to back over a seeded stream of distinct parameterized TPC-H
// queries covering all 22 templates. No serving layer, no reorganization
// and no buffer-pool misses take part.
func runReplay(cfg *config, rep *report) error {
	sf, perTemplate, maxSample := 0.02, 4, 200
	if cfg.tiny {
		sf, perTemplate, maxSample = 0.004, 1, 44
	}
	ds := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: sf, Seed: dataSeed})
	spec := &tenantSpec{
		name: "tpch", ds: ds, train: datagen.TPCHWorkload(perTemplate, trainSeed),
		sortKeys: datagen.TPCHSortKeys(), blockSize: 1000, poolBytes: 1 << 30,
	}
	opts := engine.CloudDWOptions()

	heap := startHeapPeak()
	keep := 1
	if cfg.trace {
		keep = 2
	}
	systems, err := setupReps(rep, keep, func(i int) (*replaySystem, setupTimes, error) {
		d, st, err := deploy(spec, filepath.Join(cfg.workdir, fmt.Sprintf("replay-%d", i)))
		if err != nil {
			return nil, st, err
		}
		eng := engine.New(d.store, d.design, ds, opts)
		if _, err := pass(eng, spec.train.Queries); err != nil {
			d.store.Close()
			return nil, st, err
		}
		return &replaySystem{d: d, eng: eng}, st, nil
	}, func(s *replaySystem) { s.d.store.Close() })
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range systems {
			s.d.store.Close()
		}
	}()
	sys := systems[0]
	segBytes, err := sys.d.segmentBytes()
	if err != nil {
		return err
	}
	printInputs(cfg, map[string]any{
		"benchmark": "TPC-H", "sf": sf, "rows": sys.d.rows(), "segment_bytes": segBytes,
		"training_queries": spec.train.Len(), "block_size": spec.blockSize,
		"pool_bytes": spec.poolBytes, "result_cache_entries": 0, "engine_options": opts,
		"clients": 1, "loop": "closed",
	})

	src := &querySource{rng: rand.New(rand.NewSource(cfg.seed + 2)), templates: templateRange(1, datagen.NumTPCHTemplates),
		gen: datagen.TPCHQuery, prefix: "q"}
	ph, err := measureReplay(sys, src, cfg.seconds, false, maxSample)
	if err != nil {
		return err
	}
	rep.set("peak_heap_mb", heap.finish(), "peak live heap, set-up and measurement")
	n := ph.tally.queries
	rep.Attempted += n
	lat := ph.tally.lat
	note := latencyNote(len(lat), "call to return")
	rep.set("query_p50_ms", quantile(append([]float64(nil), lat...), 0.5), note)
	rep.set("query_p99_ms", quantile(append([]float64(nil), lat...), 0.99), note)
	rep.set("qps", median(ph.slices), fmt.Sprintf("1 closed-loop client, median of %d slices of %v less stolen CPU time "+
		"(median stolen share %.3f; whole run %.1f/s of wall time) %s",
		len(ph.slices), replaySlice, median(ph.stolen), float64(n)/ph.elapsed.Seconds(), fmtList(ph.slices)))
	rep.set("blocks_per_query", ratio(float64(ph.tally.blocks), float64(n)), "")
	rep.set("segment_bytes_per_row", ratio(float64(segBytes), float64(sys.d.rows())), "")

	if err := checkReplay(cfg, rep, sys, ph); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}

	traced := systems[1]
	tph, err := measureReplay(traced, src, cfg.seconds, true, 0)
	if err != nil {
		return err
	}
	tph.tally.report(rep, "direct Engine.Execute calls")
	reportStore(rep, tph.store, tph.tally.queries)
	rep.set("runtime.gc_cpu_fraction", tph.gcFrac, "")
	tracedP50 := quantile(append([]float64(nil), tph.tally.lat...), 0.5)
	rep.set("trace.overhead_frac", ratio(tracedP50, rep.Values["query_p50_ms"])-1, "traced vs untraced query_p50_ms")
	return engineProbe(traced.d, rep)
}

// replaySlice cuts the closed loop into spans whose completions per second
// are reported by their median, so a disturbance of the machine that lasts
// part of the run moves qps little.
const replaySlice = time.Second

// measureReplay runs the closed loop for the given seconds. Queries are
// generated in chunks outside the timed calls. With traced set, it also
// records the pruning funnel and allocations. Every fifth query (up to
// maxSample) and its result are kept for the output check.
func measureReplay(sys *replaySystem, src *querySource, seconds float64, traced bool, maxSample int) (*replayPhase, error) {
	ph := &replayPhase{}
	dur := time.Duration(seconds * float64(time.Second))
	st0 := sys.d.store.StatsSnapshot()
	rt0 := readRuntime()
	start := time.Now()
	var sliceStart time.Duration
	inSlice, c0 := 0, readCPUTimes()
	for time.Since(start) < dur {
		chunk := src.take(32)
		var a0 runtimeSample
		if traced {
			a0 = readRuntime()
		}
		for _, q := range chunk {
			t0 := time.Now()
			res, err := sys.eng.Execute(q)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("execute %s: %w", q.ID, err)
			}
			inSlice++
			if t := t0.Add(d).Sub(start); t-sliceStart >= replaySlice {
				c1 := readCPUTimes()
				ph.slices = append(ph.slices, float64(inSlice)/givenTime(t-sliceStart, c0, c1).Seconds())
				ph.stolen = append(ph.stolen, stolenShare(c0, c1))
				sliceStart, inSlice, c0 = t, 0, c1
			}
			if traced {
				ph.tally.add(res, d)
			} else {
				ph.tally.lat = append(ph.tally.lat, ms(d))
				ph.tally.queries++
				ph.tally.blocks += int64(res.BlocksRead)
			}
			if len(ph.sampled) < maxSample && ph.tally.queries%5 == 1 {
				ph.sampled = append(ph.sampled, q)
				ph.results = append(ph.results, res)
			}
		}
		if traced {
			ph.tally.allocBytes += readRuntime().allocBytes - a0.allocBytes
		}
	}
	ph.elapsed = time.Since(start)
	if len(ph.slices) == 0 { // a run shorter than one slice
		c1 := readCPUTimes()
		ph.slices = []float64{float64(inSlice) / givenTime(ph.elapsed, c0, c1).Seconds()}
		ph.stolen = []float64{stolenShare(c0, c1)}
	}
	ph.gcFrac = gcCPUFraction(rt0, readRuntime())
	ph.store = sys.d.store.StatsSnapshot().Sub(st0)
	return ph, nil
}

// checkReplay re-executes the sampled queries (outside the timed phase):
// each Result must DeepEqual the same design's on the in-memory backend,
// and each query's Aggregates must equal those on a Baseline sort-key
// layout. SurvivingRows are not compared across layouts: an anti join's
// non-preserved side legitimately differs (see package engine).
func checkReplay(cfg *config, rep *report, sys *replaySystem, ph *replayPhase) error {
	ds := sys.d.spec.ds
	opts := engine.CloudDWOptions()
	mem := block.NewStore(block.DefaultCostModel())
	if _, err := sys.d.design.Install(mem, nil, 0); err != nil {
		return err
	}
	memEng := engine.New(mem, sys.d.design, ds, opts)
	baseDesign, err := layout.SortKeyDesign(ds, sys.d.spec.sortKeys, sys.d.spec.blockSize)
	if err != nil {
		return err
	}
	baseStore := block.NewStore(block.DefaultCostModel())
	if _, err := baseDesign.Install(baseStore, nil, 0); err != nil {
		return err
	}
	baseEng := engine.New(baseStore, baseDesign, ds, opts)
	for i, q := range ph.sampled {
		got := ph.results[i]
		want, err := memEng.Execute(q)
		if err != nil {
			return err
		}
		if cfg.injectMismatch && i == 0 {
			want.BlocksRead++
		}
		rep.Attempted++
		if !reflect.DeepEqual(got, want) {
			rep.mismatch("%s: disk result differs from in-memory backend (blocks %d vs %d)", q.ID, got.BlocksRead, want.BlocksRead)
		}
		base, err := baseEng.Execute(q)
		if err != nil {
			return err
		}
		rep.Attempted++
		if g, b := aggStrings(got.Aggregates), aggStrings(base.Aggregates); !reflect.DeepEqual(g, b) {
			rep.mismatch("%s: aggregates differ from Baseline layout: %v vs %v", q.ID, g, b)
		}
	}
	fmt.Fprintf(cfg.out, "check %d sampled queries: results vs in-memory backend, aggregates vs Baseline layout\n", len(ph.sampled))
	return nil
}

func aggStrings(avs []engine.AggValue) []string {
	out := make([]string, len(avs))
	for i, av := range avs {
		out[i] = av.String()
	}
	return out
}
