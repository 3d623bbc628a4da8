package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"mto/internal/datagen"
	"mto/internal/engine"
	"mto/internal/reorgd"
	"mto/internal/workload"
)

// mixedScale sizes serve-mixed.
type mixedScale struct {
	sf float64
	// trainPer is the training queries per template; poolPer the registered
	// queries per serving tenant, far more than cacheEntries.
	trainPer, poolPer, cacheEntries int
	// zipfS skews each serving tenant's draws over its pool, so that about
	// two thirds of requests hit the result cache.
	zipfS float64
	// tpchPool and otherPool are the per-tenant buffer-pool sizes: TPC-H's
	// is smaller than its working set, SSB's and TPC-DS's hold theirs.
	tpchPool, otherPool int64
	// refRate is the open-loop rate (queries per second) the latency
	// metrics are reported at, over the run's seconds as windows windows
	// of which the keepWindows least disturbed are reported. It is about an
	// eighth of the saturating throughput at the commit that defined the
	// benchmark: a light load, where latency is service time plus little
	// queueing.
	refRate              float64
	windows, keepWindows int
	// lateLimitMs bounds the generator's own p99 lateness in the reported
	// windows of a valid run. While fewer than keepWindows windows are
	// within it, more windows run, up to maxWindows.
	lateLimitMs float64
	maxWindows  int
	// clients submit back to back for satShare of the run's seconds to
	// measure the server's throughput; 4 per worker keep requests waiting
	// in the fair queue. That time is cut into one slice after each
	// reference window, so a disturbance of the machine that lasts part of
	// the run lands in few slices, and qps is the median slice's.
	clients  int
	satShare float64
	// ladder is the fixed rate ladder (queries per second) for
	// max_rate_qps, a second per rung; limitMs is the p99 a rung must meet.
	ladder  []float64
	limitMs float64
	keep    int // responses kept per output check
	// The reorganization phase offers driftRate queries per second to the
	// drifting tenant for reorgShare of the run's seconds and steps its
	// daemon steps times; driftPer is that tenant's registered queries per
	// TPC-H template.
	driftRate  float64
	driftPer   int
	steps      int
	reorgShare float64
}

// driftTenant is the tenant the reorganization phase drives.
const driftTenant = "tpch-drift"

// runMixed serves SSB, TPC-H and TPC-DS tenants behind one serve.Server,
// driven through its HTTP handler in-process. Each request picks a tenant
// in proportion to the tenants' fair-queue weights and a query from that
// tenant's pool by a Zipf draw; the pools are much larger than the result
// cache, so the cache, the fair queue and the buffer pools all carry load,
// and the engine runs only on cache misses. Phases, in order: the
// reference rate open-loop for the run's seconds (latency), in windows
// alternating with slices of a saturating closed loop (throughput), and a
// fixed rate ladder (max_rate_qps).
//
// The last phase runs on a server of its own, set up after the ladder: a
// TPC-H tenant whose layout is learned from templates 1–11, under traffic
// walking into templates 12–22 while the benchmark steps its reorg daemon.
// Keeping it apart keeps the reorganization's tail-latency noise, and its
// memory, out of the end-to-end figures.
func runMixed(cfg *config, rep *report) error {
	sc := mixedScale{
		sf: 0.02, trainPer: 4, poolPer: 1024, cacheEntries: 256, zipfS: 1.1,
		tpchPool: 4 << 20, otherPool: 256 << 20,
		refRate: 200, windows: 8, keepWindows: 4, lateLimitMs: 5, maxWindows: 16, clients: 8, satShare: 1.0 / 3,
		ladder: []float64{400, 800, 1200, 1600, 2400}, limitMs: 100, keep: 150,
		driftRate: 100, driftPer: 64, steps: 3, reorgShare: 1.0 / 3,
	}
	if cfg.tiny {
		sc.sf, sc.trainPer, sc.poolPer, sc.cacheEntries, sc.keep = 0.003, 1, 64, 16, 40
		sc.refRate, sc.ladder, sc.driftPer, sc.steps = 100, []float64{200}, 2, 2
	}
	serving, drift := mixedTenants(cfg.seed, sc)
	heap := startHeapPeak()
	keep := 1
	if cfg.trace {
		keep = 2
	}
	systems, err := setupReps(rep, keep, func(i int) (*serveSystem, setupTimes, error) {
		return buildServe(serving, sc.cacheEntries, fmt.Sprintf("%s/mixed-%d", cfg.workdir, i))
	}, (*serveSystem).close)
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range systems {
			s.close()
		}
	}()
	sys := systems[0]
	perRow, segBytes, err := segmentBytesPerRow(sys.tenants)
	if err != nil {
		return err
	}
	rows := map[string]int64{}
	shares := map[string]float64{}
	for i, share := range tenantShares(serving) {
		rows[serving[i].name] = sys.tenants[i].rows()
		shares[serving[i].name] = share
	}
	rows[drift.name] = rows["tpch"]
	printInputs(cfg, map[string]any{
		"benchmarks": []string{"SSB", "TPC-H", "TPC-DS"}, "sf": sc.sf, "rows": rows, "segment_bytes": segBytes,
		"tenant_shares": shares, "pool_queries_per_tenant": sc.poolPer, "zipf_s": sc.zipfS,
		"result_cache_entries": sc.cacheEntries, "server_workers": serverWorkers,
		"pool_bytes":     map[string]int64{"ssb": sc.otherPool, "tpch": sc.tpchPool, "tpcds": sc.otherPool, driftTenant: drift.poolBytes},
		"engine_options": engine.CloudDWOptions(),
		"engine_options_note": "tenants run engine.CloudDWOptions as mto.System does, not the TenantConfig " +
			"zero-value DefaultOptions that experiments.NewServeDeployment gets",
		"reference": map[string]any{"loop": "open, Poisson", "rate_qps": sc.refRate, "windows": sc.windows,
			"kept_windows": sc.keepWindows, "late_limit_ms_p99": sc.lateLimitMs, "max_windows": sc.maxWindows},
		"throughput":   map[string]any{"loop": "closed", "clients": sc.clients, "phase_s": cfg.seconds * sc.satShare},
		"ladder_qps":   sc.ladder,
		"p99_limit_ms": sc.limitMs,
		"drift_tenant": map[string]any{"training_templates": "1-11", "traffic": "1-11 walking into 12-22",
			"rate_qps": sc.driftRate, "phase_s": cfg.seconds * sc.reorgShare, "steps": sc.steps,
			"reorg": map[string]any{"budget": driftReorg.Budget, "interval": driftReorg.Interval.String(),
				"window": driftReorg.Window, "min_cycle_queries": driftReorg.MinCycleQueries, "top_k": driftReorg.TopK,
				"q": driftReorg.Q, "w": driftReorg.W, "parallelism": driftReorg.Parallelism}},
	})

	refDur := time.Duration(cfg.seconds * float64(time.Second))
	satDur := time.Duration(cfg.seconds * sc.satShare * float64(time.Second))
	ref, sat, err := measurePhase(cfg, rep, sys, serving, sc, refDur, satDur, cfg.seed*100+10)
	if err != nil {
		return err
	}
	maxRate := 0.0
	for i, rate := range sc.ladder {
		r := runPlan(sys, mixedPlan(serving, sc, rate, time.Second, cfg.seed*100+20+int64(i), false), time.Second, sc.limitMs, 0)
		rep.Attempted += r.sum.n
		rep.Failed += r.sum.failed
		rep.Errors += r.sum.errors
		fmt.Fprintf(cfg.out, "rung %6.0f qps: n=%d p50=%.3fms p99=%.3fms drain=%.1fms cache-hits=%d failed=%d pass=%v\n",
			rate, r.sum.n, r.sum.p(0.5), r.sum.p(0.99), ms(r.drain), r.sum.cached, r.sum.failed, r.pass)
		if !r.pass {
			break
		}
		maxRate = rate
	}
	rep.set("peak_heap_mb", heap.finish(), "peak live heap, set-up and measurement")
	note := latencyNote(len(ref.lat), fmt.Sprintf("at the reference rate %.0f qps, due time to response", sc.refRate))
	rep.set("query_p50_ms", ref.p(0.5), note)
	rep.set("query_p99_ms", ref.p(0.99), note)
	rep.set("qps", sat.qps, fmt.Sprintf("%d closed-loop clients, median of %d slices of %.2fs less stolen CPU time "+
		"(median stolen share %.3f; all slices %.1f/s of wall time) %s",
		sc.clients, len(sat.slices), sat.slice.Seconds(), median(sat.stolen), sat.whole, fmtList(sat.slices)))
	rep.set("blocks_per_query", ratio(float64(ref.blocks), float64(ref.engineRuns)),
		fmt.Sprintf("over %d engine executions (cache misses) at the reference rate", ref.engineRuns))
	rep.set("segment_bytes_per_row", perRow, "")
	rep.set("max_rate_qps", maxRate, fmt.Sprintf("highest ladder rate with p99 <= %.0f ms and no backlog", sc.limitMs))
	rep.set("serve.max_rate_qps", maxRate, "")
	rep.set("loadgen.late_ms_p99", quantile(ref.late, 0.99),
		fmt.Sprintf("dispatch time minus due time, reference phase (limit %.0f ms)", sc.lateLimitMs))

	rg, err := reorgPhase(cfg, drift, sc, time.Duration(cfg.seconds*sc.reorgShare*float64(time.Second)))
	if err != nil {
		return err
	}
	rep.Attempted += rg.sum.n + rg.checks.Attempted
	rep.Failed += rg.sum.failed + rg.checks.Failed
	rep.Errors += rg.sum.errors
	rep.Mismatches = append(rep.Mismatches, rg.checks.Mismatches...)
	var stepS []float64
	for _, st := range rg.steps {
		stepS = append(stepS, (st.end - st.start).Seconds())
		fmt.Fprintf(cfg.out, "reorg step at %.2fs: %-10s %.3fs written=%d\n",
			st.start.Seconds(), st.cs.Action, (st.end - st.start).Seconds(), st.cs.BlocksWritten)
	}
	rep.set("blocks_written_per_kq", rg.writtenPerKQ(), fmt.Sprintf("%d blocks written by %d swaps over %d requests of the reorganization phase",
		blocksWritten(rg.steps), swaps(rg.steps), rg.sum.ok))
	rep.set("reorgd.blocks_written_per_kq", rg.writtenPerKQ(), "")
	rep.set("reorgd.step_s.p50", median(stepS), fmt.Sprintf("%d steps", len(stepS)))
	rep.set("reorgd.step_s.max", quantile(stepS, 1), "")
	rep.set("reorgd.swaps", float64(swaps(rg.steps)), "")
	rep.set("serve.swap_stall_ms", swapStall(rg.steps, rg.plan, rg.out),
		"worst latency of requests in flight during a StepTenant call that swapped")
	if !cfg.trace {
		return nil
	}

	// Traced: the reference rate on a second set-up, after the same
	// warm-up, with the server's queue depth sampled and every layer's
	// counters read around it.
	tsys := systems[1]
	warmUp(rep, tsys, serving, sc, refDur/time.Duration(sc.windows), cfg.seed*100+49)
	st0, cache0, rt0 := tsys.storeStats(), tsys.srv.Stats().Cache, readRuntime()
	qs := sampleQueue(tsys.srv)
	r := runPlan(tsys, mixedPlan(serving, sc, sc.refRate, refDur, cfg.seed*100, false), refDur, sc.limitMs, 0)
	depths := qs.finish()
	rt1, stats := readRuntime(), tsys.srv.Stats()
	rep.set("runtime.gc_cpu_fraction", gcCPUFraction(rt0, rt1), "")
	reportStore(rep, tsys.storeStats().Sub(st0), r.sum.engineRuns)
	rep.set("colstore.blocks_written", float64(rg.written), "backend writes of the reorganization phase")
	hits, misses := stats.Cache.Hits-cache0.Hits, stats.Cache.Misses-cache0.Misses
	rep.set("serve.result_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), fmt.Sprintf("%d hits, %d misses", hits, misses))
	rep.set("serve.server_p99_ms", float64(stats.Latency.P99)/1000, "ServerStats.Latency, enqueue to answer, whole server lifetime")
	rep.set("serve.queue_depth_p99", quantile(depths, 0.99), fmt.Sprintf("%d samples every 5ms", len(depths)))
	for name, lat := range r.sum.perTenant {
		rep.set("serve.p99_ms."+name, quantile(lat, 0.99), fmt.Sprintf("n=%d", len(lat)))
	}
	rep.set("serve.rejected_frac", ratio(float64(r.sum.failed), float64(r.sum.n)), "")
	rep.set("trace.overhead_frac", ratio(r.sum.p(0.5), rep.Values["query_p50_ms"])-1, "traced vs untraced query_p50_ms")
	tally, err := replayMisses(tsys, serving, r.plan, r.out, 100)
	if err != nil {
		return err
	}
	tally.report(rep, "served cache misses re-executed after the load")
	for _, d := range tsys.tenants {
		if err := engineProbe(d, rep); err != nil {
			return err
		}
	}
	return nil
}

// measurePhase offers the reference rate open-loop for refDur, as
// sc.windows consecutive windows, and after each window drives the server
// with a saturating closed-loop slice, satDur over all slices. It checks a
// sample of every window's responses. The generator shares the machine
// with the server, so while other load on the machine delays it, it
// dispatches late and the delay lands in every latency it measures. The
// latency result therefore pools the requests of the sc.keepWindows
// windows in which the generator's p99 lateness was lowest. While fewer
// than sc.keepWindows windows are within sc.lateLimitMs, further windows
// (each with its slice) run, up to sc.maxWindows. When even the kept
// windows' pooled lateness is over the limit, the run says it is invalid. Interleaving the slices with the windows spreads both over the
// same stretch of the run. A closed-loop warm-up of one window's length
// comes first, so the first window does not meet a cold result cache and
// buffer pool.
func measurePhase(cfg *config, rep *report, sys *serveSystem, serving []*servedTenant, sc mixedScale,
	refDur, satDur time.Duration, seed int64) (*loadSummary, *satResult, error) {
	win := refDur / time.Duration(sc.windows)
	wsc := sc
	wsc.keep = sc.keep / sc.windows
	type window struct {
		r    *rungResult
		late float64
	}
	var wins []window
	sat := &satResult{slice: satDur / time.Duration(sc.windows)}
	warmUp(rep, sys, serving, sc, win, seed+39)
	var issued []arrival
	var satOut []outcome
	var inTotal int
	for w, within := 0, 0; w < sc.windows || (within < sc.keepWindows && w < sc.maxWindows); w++ {
		r := runPlan(sys, mixedPlan(serving, wsc, sc.refRate, win, seed+int64(w), true), win, sc.limitMs, 0)
		late := quantile(append([]float64(nil), r.sum.late...), 0.99)
		fmt.Fprintf(cfg.out, "reference window %d: n=%d p50=%.3fms p99=%.3fms late-p99=%.3fms\n",
			w+1, r.sum.n, r.sum.p(0.5), r.sum.p(0.99), late)
		rep.Attempted += r.sum.n
		rep.Failed += r.sum.failed
		rep.Errors += r.sum.errors
		if err := checkServed(cfg, rep, sys.h, r.plan, r.out); err != nil {
			return nil, nil, err
		}
		wins = append(wins, window{r, late})
		if late <= sc.lateLimitMs {
			within++
		}

		// At 20 s, more arrivals than a slice completes, so none repeats.
		plan := mixedPlan(serving, sc, 4096, time.Second, seed+50+int64(w), false)
		c0 := readCPUTimes()
		pi, po, inTime := closedLoop(sys.h, plan, sc.clients, sat.slice)
		c1 := readCPUTimes()
		issued, satOut, inTotal = append(issued, pi...), append(satOut, po...), inTotal+inTime
		sat.slices = append(sat.slices, float64(inTime)/givenTime(sat.slice, c0, c1).Seconds())
		sat.stolen = append(sat.stolen, stolenShare(c0, c1))
	}
	sat.qps, sat.whole = median(sat.slices), float64(inTotal)/(sat.slice*time.Duration(len(sat.slices))).Seconds()
	sat.sum = summarize(issued, satOut)
	rep.Attempted += sat.sum.n
	rep.Failed += sat.sum.failed
	rep.Errors += sat.sum.errors

	sort.SliceStable(wins, func(i, j int) bool { return wins[i].late < wins[j].late })
	var plan []arrival
	var out []outcome
	for _, w := range wins[:sc.keepWindows] {
		plan, out = append(plan, w.r.plan...), append(out, w.r.out...)
	}
	sum := summarize(plan, out)
	fmt.Fprintf(cfg.out, "reference: kept the %d least late of %d windows\n", sc.keepWindows, len(wins))
	if late := quantile(append([]float64(nil), sum.late...), 0.99); late > sc.lateLimitMs {
		fmt.Fprintf(cfg.out, "invalid: the generator ran %.1f ms late at p99 in the %d kept of %d reference windows, over the %.0f ms limit\n",
			late, sc.keepWindows, len(wins), sc.lateLimitMs)
	}
	return sum, sat, nil
}

// warmUp drives the server with sc.clients closed-loop clients for dur
// before a measured phase. Its requests count as attempts; none is
// measured.
func warmUp(rep *report, sys *serveSystem, serving []*servedTenant, sc mixedScale, dur time.Duration, seed int64) {
	plan, out, _ := closedLoop(sys.h, mixedPlan(serving, sc, 4096, time.Second, seed, false), sc.clients, dur)
	sum := summarize(plan, out)
	rep.Attempted += sum.n
	rep.Failed += sum.failed
	rep.Errors += sum.errors
}

// satResult is the saturating closed-loop phase: every slice's outcomes
// pooled, each slice's completions per second over the time the host gave
// (see givenTime) and its stolen share, their median, and the completions
// per second of wall time over all slices.
type satResult struct {
	sum            *loadSummary
	slices, stolen []float64
	slice          time.Duration
	qps, whole     float64
}

// mixedTenants generates the tenants' datasets and training workloads,
// and their registered query pools from the seed: the SSB, TPC-H and
// TPC-DS serving tenants, and the drifting TPC-H tenant.
func mixedTenants(seed int64, sc mixedScale) ([]*servedTenant, *servedTenant) {
	src := func(s int64, templates []int, gen func(int, *rand.Rand) *workload.Query, prefix string) *querySource {
		return &querySource{rng: rand.New(rand.NewSource(s)), templates: templates, gen: gen, prefix: prefix}
	}
	ssbTrain := workload.NewWorkload()
	for _, q := range src(trainSeed, templateRange(1, len(ssbQueries)), ssbQuery, "train-ssb").take(sc.trainPer * len(ssbQueries)) {
		ssbTrain.Add(q)
	}
	tpch := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: sc.sf, Seed: dataSeed})
	early := src(seed+13, templateRange(1, 11), datagen.TPCHQuery, "early-q").take(sc.driftPer * 11)
	late := src(seed+14, templateRange(12, datagen.NumTPCHTemplates), datagen.TPCHQuery, "late-q").take(sc.driftPer * 11)
	serving := []*servedTenant{
		{
			tenantSpec: &tenantSpec{name: "ssb", ds: datagen.SSB(datagen.SSBConfig{ScaleFactor: sc.sf, Seed: dataSeed}),
				train: ssbTrain, sortKeys: datagen.SSBSortKeys(), blockSize: 1000, poolBytes: sc.otherPool},
			pool:   src(seed+10, templateRange(1, len(ssbQueries)), ssbQuery, "ssb").take(sc.poolPer),
			weight: 1,
		},
		{
			tenantSpec: &tenantSpec{name: "tpch", ds: tpch, train: datagen.TPCHWorkload(sc.trainPer, trainSeed),
				sortKeys: datagen.TPCHSortKeys(), blockSize: 1000, poolBytes: sc.tpchPool},
			pool:   src(seed+11, templateRange(1, datagen.NumTPCHTemplates), datagen.TPCHQuery, "tpch").take(sc.poolPer),
			weight: 2,
		},
		{
			tenantSpec: &tenantSpec{name: "tpcds", ds: datagen.TPCDS(datagen.TPCDSConfig{ScaleFactor: sc.sf, Seed: dataSeed}),
				train: datagen.TPCDSWorkload(trainSeed), sortKeys: datagen.TPCDSSortKeys(), blockSize: 500,
				poolBytes: sc.otherPool},
			pool:   src(seed+12, templateRange(1, datagen.NumTPCDSTemplates), datagen.TPCDSQuery, "tpcds").take(sc.poolPer),
			weight: 1,
		},
	}
	drift := &servedTenant{
		tenantSpec: &tenantSpec{name: driftTenant, ds: tpch, train: datagen.TPCHWorkloadTemplates(1, 11, sc.trainPer, trainSeed),
			sortKeys: datagen.TPCHSortKeys(), blockSize: 1000, poolBytes: 1 << 30},
		pool:   append(append([]*workload.Query(nil), early...), late...),
		weight: 1,
		reorg:  driftReorg,
		phases: [][]*workload.Query{early, late, late},
	}
	return serving, drift
}

// driftReorg configures the drifting tenant's daemon. Its own interval is
// an hour: the benchmark steps it at fixed completed-request counts
// instead. Q is a long horizon so the planner finds reorganizations worth
// their writes within a short phase.
var driftReorg = &reorgd.Config{
	Budget: 80, Interval: time.Hour, Window: 64, MinCycleQueries: 32, TopK: 8,
	Seed: dataSeed, Q: 5000, W: 100, Parallelism: 1,
}

// ssbQueries lists SSB's 13 queries as (flight, query) pairs.
var ssbQueries = [][2]int{{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}, {2, 3}, {3, 1}, {3, 2}, {3, 3}, {3, 4}, {4, 1}, {4, 2}, {4, 3}}

func ssbQuery(template int, rng *rand.Rand) *workload.Query {
	fq := ssbQueries[template-1]
	return datagen.SSBQuery(fq[0], fq[1], rng)
}

// tenantShares is each serving tenant's share of the requests: its
// fair-queue weight over the sum of the weights, so every tenant asks for
// what the queue entitles it to.
func tenantShares(tenants []*servedTenant) []float64 {
	total := 0.0
	for _, t := range tenants {
		total += t.weight
	}
	shares := make([]float64, len(tenants))
	for i, t := range tenants {
		shares[i] = t.weight / total
	}
	return shares
}

// mixedPlan schedules rate×dur arrivals over the serving tenants: each
// picks a tenant by tenantShares and a query from its pool by a Zipf draw
// over the pool's ranks. The draws are stratified: of n arrivals, the i-th
// in a seeded random order takes the uniform (i+U)/n through the joint
// (tenant, rank) distribution, so every plan asks for each tenant and each
// hot query within one of its expected count, and how many requests land
// in the costly tail varies far less between seeds than with independent
// draws. With keep set, a seeded sample of about sc.keep responses is kept
// for the output check; the draws are the same either way.
func mixedPlan(tenants []*servedTenant, sc mixedScale, rate float64, dur time.Duration, seed int64, keep bool) []arrival {
	rng := rand.New(rand.NewSource(seed))
	type cell struct{ tenant, rank int }
	var cells []cell
	var cdf []float64
	total := 0.0
	for ti, share := range tenantShares(tenants) {
		// rand.Zipf's distribution with v = 1: P(k) ∝ (1+k)^-s.
		norm := 0.0
		for k := range tenants[ti].pool {
			norm += math.Pow(float64(1+k), -sc.zipfS)
		}
		for k := range tenants[ti].pool {
			total += share * math.Pow(float64(1+k), -sc.zipfS) / norm
			cells, cdf = append(cells, cell{ti, k}), append(cdf, total)
		}
	}
	plan := poissonPlan(rng, rate, dur)
	order := rng.Perm(len(plan))
	p := float64(sc.keep) / float64(len(plan)+1)
	for i := range plan {
		u := (float64(order[i]) + rng.Float64()) / float64(len(plan)) * total
		c := cells[min(sort.SearchFloat64s(cdf, u), len(cells)-1)]
		plan[i].tenant, plan[i].id = tenants[c.tenant].name, tenants[c.tenant].pool[c.rank].ID
		sampled := rng.Float64() < p
		plan[i].keep = keep && sampled
	}
	return plan
}

// reorgPhase sets up a server for the drifting tenant alone and offers it
// sc.driftRate queries per second for dur, walking from its trained
// templates' pool into the others' in dispatch order (the stream's order is
// the same for every seed), while its daemon is stepped sc.steps times at
// evenly spaced completed-request counts. A sample of the responses is
// checked after the load into r.checks.
func reorgPhase(cfg *config, t *servedTenant, sc mixedScale, dur time.Duration) (*rungResult, error) {
	sys, _, err := buildServe([]*servedTenant{t}, sc.cacheEntries, fmt.Sprintf("%s/drift", cfg.workdir))
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rng := rand.New(rand.NewSource(cfg.seed*100 + 50))
	plan := poissonPlan(rng, sc.driftRate, dur)
	stream := workload.Drift(t.phases, len(plan), trainSeed)
	p := float64(sc.keep) / float64(len(plan)+1)
	for i := range plan {
		plan[i].tenant, plan[i].id = t.name, stream[i].ID
		plan[i].keep = rng.Float64() < p
	}
	st0 := sys.storeStats()
	r := runPlan(sys, plan, dur, sc.limitMs, sc.steps)
	r.written = sys.storeStats().Sub(st0).BlocksWritten
	for _, st := range r.steps {
		if st.err != nil {
			return nil, fmt.Errorf("reorg step: %w", st.err)
		}
	}
	r.checks = newReport()
	if err := checkServed(cfg, r.checks, sys.h, r.plan, r.out); err != nil {
		return nil, err
	}
	return r, nil
}

// rungResult is one open-loop phase: a rung of the ladder or the
// reorganization phase.
type rungResult struct {
	plan           []arrival
	out            []outcome
	sum            *loadSummary
	elapsed, drain time.Duration
	pass           bool
	steps          []stepRecord
	// written is the backend's block writes during a reorganization phase;
	// checks its output-check tally.
	written int64
	checks  *report
}

// writtenPerKQ is the blocks the phase's reorg steps wrote per 1000
// completed requests.
func (r *rungResult) writtenPerKQ() float64 {
	return ratio(float64(blocksWritten(r.steps))*1000, float64(r.sum.ok))
}

// runPlan runs a plan open-loop. With steps > 0 the drifting tenant's
// daemon is stepped that many times during the load. The phase passes when
// its p99 meets limitMs, nothing failed, and the backlog at its end drains
// within the limit.
func runPlan(sys *serveSystem, plan []arrival, dur time.Duration, limitMs float64, steps int) *rungResult {
	var completed atomic.Int64
	start, done := time.Now(), make(chan struct{})
	stepped := stepper(sys.srv, driftTenant, steps, len(plan), start, &completed, done)
	out, elapsed := openLoop(sys.h, plan, start, &completed)
	close(done)
	r := &rungResult{plan: plan, out: out, sum: summarize(plan, out), elapsed: elapsed, steps: stepped()}
	if elapsed > dur {
		r.drain = elapsed - dur
	}
	r.pass = r.sum.failed == 0 && r.sum.p(0.99) <= limitMs && ms(r.drain) <= limitMs
	return r
}
