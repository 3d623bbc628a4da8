package engine_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"mto/internal/datagen"
	"mto/internal/engine"
	"mto/internal/experiments"
	"mto/internal/workload"
)

// BenchmarkSemiJoinReduce times Execute on the TPC-H templates whose cost
// is dominated by semi-join reduction — Q9 (six-way snowflake), Q17
// (correlated lineitem self-join) and Q18 (semi join on a selective
// lineitem subquery) — over the MTO layout at SF 0.02 on the disk
// backend, with every block cached and the join-key indexes built (warm).
// Each op executes one batch of seeded instances of the template.
func BenchmarkSemiJoinReduce(b *testing.B) {
	s := experiments.DefaultScale()
	s.PerTemplate = 2
	bench := experiments.TPCHBench(s)
	bench.Store, bench.DataDir, bench.CacheMB = "disk", b.TempDir(), 1024
	d, err := experiments.DeployMethod(bench, experiments.MethodMTO, true)
	if err != nil {
		b.Fatal(err)
	}
	if c, ok := d.Store.(io.Closer); ok {
		defer c.Close()
	}
	eng := engine.New(d.Store, d.Design, bench.Dataset, engine.CloudDWOptions())
	for _, tmpl := range []int{9, 17, 18} {
		rng := rand.New(rand.NewSource(int64(tmpl)))
		qs := make([]*workload.Query, 8)
		for i := range qs {
			qs[i] = datagen.TPCHQuery(tmpl, rng)
		}
		run := func(b *testing.B) {
			for _, q := range qs {
				if _, err := eng.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		}
		run(b) // warm the pool and the table-owned key indexes
		b.Run(fmt.Sprintf("q%d", tmpl), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b)
			}
		})
	}
}
