package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/layout"
	"mto/internal/relation"
	"mto/internal/workload"
)

// The database — every dataset, and the training workload each layout is
// learned from — is the same for every seed, so all runs measure the same
// learned layouts. The -seed flag drives the traffic: the measured queries'
// parameters, their order and their arrival times.
const (
	dataSeed  = 1
	trainSeed = 2
)

// tenantSpec is one dataset and the workload its MTO layout is learned
// from.
type tenantSpec struct {
	name      string
	ds        *relation.Dataset
	train     *workload.Workload
	sortKeys  layout.SortKeys
	blockSize int
	poolBytes int64
}

// deployed is one tenant's installed MTO layout on its own segment store.
type deployed struct {
	spec   *tenantSpec
	opt    *core.Optimizer
	design *layout.Design
	store  *colstore.Store
}

// setupTimes are one set-up's calls into the layout layers.
type setupTimes struct {
	optimize, buildDesign, install time.Duration
}

func (a *setupTimes) add(b setupTimes) {
	a.optimize += b.optimize
	a.buildDesign += b.buildDesign
	a.install += b.install
}

// deploy learns the tenant's layout (core.Optimize), builds the design and
// installs it into a fresh segment store under dir.
func deploy(spec *tenantSpec, dir string) (*deployed, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	opt, err := core.Optimize(spec.ds, spec.train, core.Options{
		BlockSize:     spec.blockSize,
		SampleRate:    0.25,
		JoinInduction: true,
		LeafOrderKeys: map[string]string(spec.sortKeys),
		Seed:          dataSeed,
	})
	if err != nil {
		return nil, st, fmt.Errorf("%s: optimize: %w", spec.name, err)
	}
	t1 := time.Now()
	design, err := opt.BuildDesign()
	if err != nil {
		return nil, st, fmt.Errorf("%s: build design: %w", spec.name, err)
	}
	t2 := time.Now()
	store, err := colstore.NewStore(dir, spec.poolBytes, block.DefaultCostModel())
	if err != nil {
		return nil, st, err
	}
	if _, err := design.Install(store, nil, 0); err != nil {
		store.Close()
		return nil, st, fmt.Errorf("%s: install: %w", spec.name, err)
	}
	t3 := time.Now()
	st = setupTimes{optimize: t1.Sub(t0), buildDesign: t2.Sub(t1), install: t3.Sub(t2)}
	return &deployed{spec: spec, opt: opt, design: design, store: store}, st, nil
}

// rows is the number of rows stored across the tenant's tables.
func (d *deployed) rows() int64 {
	var n int64
	for _, name := range d.spec.ds.TableNames() {
		n += int64(d.spec.ds.Table(name).NumRows())
	}
	return n
}

// segmentBytes sums the sizes of the newest segment file of every table in
// the store's directory (retired generations are not counted).
func (d *deployed) segmentBytes() (int64, error) {
	entries, err := os.ReadDir(d.store.Dir())
	if err != nil {
		return 0, err
	}
	newest := map[string]string{}
	for _, e := range entries {
		name := e.Name()
		i := strings.LastIndexByte(name, '-')
		if i < 0 || !strings.HasSuffix(name, ".seg") {
			continue
		}
		if table := name[:i]; name > newest[table] {
			newest[table] = name
		}
	}
	var total int64
	for _, name := range newest {
		fi, err := os.Stat(filepath.Join(d.store.Dir(), name))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// pass executes every query once on eng, returning the elapsed time.
func pass(eng *engine.Engine, qs []*workload.Query) (time.Duration, error) {
	t0 := time.Now()
	for _, q := range qs {
		if _, err := eng.Execute(q); err != nil {
			return 0, fmt.Errorf("execute %s: %w", q.ID, err)
		}
	}
	return time.Since(t0), nil
}

// engineProbe is the traced run's engine-layer measurement: the cost of
// engine.New and of a fresh engine's first pass over the training queries
// beyond its second (warm) pass, on a warm buffer pool.
func engineProbe(d *deployed, rep *report) error {
	t0 := time.Now()
	eng := engine.New(d.store, d.design, d.spec.ds, engine.CloudDWOptions())
	newDur := time.Since(t0)
	cold, err := pass(eng, d.spec.train.Queries)
	if err != nil {
		return err
	}
	warm, err := pass(eng, d.spec.train.Queries)
	if err != nil {
		return err
	}
	rep.Values["engine.new_ms"] += ms(newDur)
	rep.Values["engine.cold_pass_s"] += (cold - warm).Seconds()
	return nil
}

// querySource instantiates distinct parameterized queries from a seeded
// generator, cycling through the given templates.
type querySource struct {
	rng       *rand.Rand
	templates []int
	gen       func(template int, rng *rand.Rand) *workload.Query
	prefix    string
	n         int
}

func (s *querySource) next() *workload.Query {
	t := s.templates[s.n%len(s.templates)]
	q := s.gen(t, s.rng)
	q.ID = fmt.Sprintf("%s%d#%d", s.prefix, t, s.n)
	s.n++
	return q
}

func (s *querySource) take(n int) []*workload.Query {
	out := make([]*workload.Query, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func templateRange(from, to int) []int {
	out := make([]int, 0, to-from+1)
	for t := from; t <= to; t++ {
		out = append(out, t)
	}
	return out
}

// setupRuns is how many times a run sets its system up; setup_s is their
// median.
const setupRuns = 3

// setupReps runs build setupRuns times and reports the median duration as
// setup_s. It keeps the last keep results (older ones are closed) so the
// run can measure on a freshly set-up system.
func setupReps[T any](rep *report, keep int, build func(i int) (T, setupTimes, error), closeFn func(T)) ([]T, error) {
	var durs, walls []float64
	var kept []T
	var times []setupTimes
	for i := 0; i < setupRuns; i++ {
		t0, c0 := time.Now(), readCPUTimes()
		v, st, err := build(i)
		if err != nil {
			for _, k := range kept {
				closeFn(k)
			}
			return nil, err
		}
		wall := time.Since(t0)
		durs = append(durs, givenTime(wall, c0, readCPUTimes()).Seconds())
		walls = append(walls, wall.Seconds())
		times = append(times, st)
		kept = append(kept, v)
		if len(kept) > keep {
			closeFn(kept[0])
			kept = kept[1:]
		}
	}
	rep.set("setup_s", median(durs), fmt.Sprintf("median of %d set-ups %s, less stolen CPU time (wall %s)",
		setupRuns, fmtList(durs), fmtList(walls)))
	var opt, bd, inst []float64
	for _, st := range times {
		opt = append(opt, st.optimize.Seconds())
		bd = append(bd, st.buildDesign.Seconds())
		inst = append(inst, st.install.Seconds())
	}
	rep.set("core.optimize_s", median(opt), fmt.Sprintf("median of %d", setupRuns))
	rep.set("core.build_design_s", median(bd), fmt.Sprintf("median of %d", setupRuns))
	rep.set("layout.install_s", median(inst), fmt.Sprintf("median of %d", setupRuns))
	return kept, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
