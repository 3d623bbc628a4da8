package engine

import (
	"reflect"
	"sync"
	"testing"

	"mto/internal/block"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// TestStatsSnapshotConcurrent hammers Execute from many goroutines while
// snapshotting concurrently (under -race this is the data-race check for
// the engine counters), then verifies the final snapshot's exact counters
// against a sequential replay of the same workload on a fresh engine.
func TestStatsSnapshotConcurrent(t *testing.T) {
	ds := snowflakeDS(t, 100, 5000, 3)
	queries := snowflakeWorkload(24)

	store, design := installSnowflake(t, ds, 500)
	e := New(store, design, ds, parallelEngineOptions())

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 8 {
				if _, err := e.Execute(queries[i]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := e.StatsSnapshot()
			if s.Queries < 0 || s.BlocksRead < 0 {
				t.Error("negative counter in snapshot")
			}
		}
	}()
	wg.Wait()
	<-done

	got := e.StatsSnapshot()
	if got.Queries != int64(len(queries)) || got.Errors != 0 {
		t.Fatalf("queries=%d errors=%d, want %d/0", got.Queries, got.Errors, len(queries))
	}

	refStore, refDesign := installSnowflake(t, ds, 500)
	ref := New(refStore, refDesign, ds, parallelEngineOptions())
	var wantBlocks, wantRows int64
	for _, q := range queries {
		res, err := ref.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		wantBlocks += int64(res.BlocksRead)
		for _, ta := range res.PerTable {
			wantRows += int64(ta.RowsScanned)
		}
	}
	if got.BlocksRead != wantBlocks || got.RowsScanned != wantRows {
		t.Fatalf("blocks=%d rows=%d, want %d/%d", got.BlocksRead, got.RowsScanned, wantBlocks, wantRows)
	}
	if got.SimSeconds <= 0 {
		t.Fatalf("SimSeconds=%v, want > 0", got.SimSeconds)
	}

	// The errors counter meters failed executions.
	bad := snowflakeWorkload(1)[0]
	bad.Tables[0].Table = "no-such-table"
	if _, err := e.Execute(bad); err == nil {
		t.Fatal("expected error for missing table")
	}
	if s := e.StatsSnapshot(); s.Errors != 1 {
		t.Fatalf("Errors=%d after failed query, want 1", s.Errors)
	}
}

// TestReorderAggregates covers the cache-hit declaration-order restoration.
func TestReorderAggregates(t *testing.T) {
	mk := func(op workload.AggOp, alias, col string) AggValue {
		return AggValue{Spec: workload.Aggregate{Op: op, Alias: alias, Column: col}}
	}
	cached := []AggValue{
		mk(workload.AggCount, "lo", ""),
		mk(workload.AggMin, "d", "k"),
		mk(workload.AggSum, "lo", "rev"),
	}
	want := []string{"sum(lo.rev)", "count(lo.*)", "min(d.k)"}
	out, ok := ReorderAggregates(cached, want)
	if !ok {
		t.Fatal("reorder failed on matching sets")
	}
	for i, spec := range want {
		if out[i].Spec.String() != spec {
			t.Fatalf("position %d: got %s, want %s", i, out[i].Spec.String(), spec)
		}
	}
	if _, ok := ReorderAggregates(cached, []string{"sum(lo.rev)", "count(lo.*)"}); ok {
		t.Fatal("length mismatch accepted")
	}
	if _, ok := ReorderAggregates(cached, []string{"sum(lo.rev)", "count(lo.*)", "max(d.k)"}); ok {
		t.Fatal("spec mismatch accepted")
	}
	out, ok = ReorderAggregates(nil, nil)
	if !ok || out != nil {
		t.Fatal("empty sets should reorder to nil, true")
	}
}

// TestReductionsTruncatedCounted runs a three-table chain whose filter on
// c reaches a only in a second reduction pass. Capped at one pass, the
// fixpoint stops while still shrinking: the query is counted as truncated
// and its Result still equals the reference's under the same cap. With
// the default cap nothing is truncated.
func TestReductionsTruncatedCounted(t *testing.T) {
	ds := relation.NewDataset()
	a := relation.NewTable(relation.MustSchema("a", relation.Column{Name: "k", Type: value.KindInt}))
	b := relation.NewTable(relation.MustSchema("b",
		relation.Column{Name: "k", Type: value.KindInt}, relation.Column{Name: "j", Type: value.KindInt}))
	c := relation.NewTable(relation.MustSchema("c",
		relation.Column{Name: "j", Type: value.KindInt}, relation.Column{Name: "v", Type: value.KindInt}))
	for i := 0; i < 40; i++ {
		a.MustAppendRow(value.Int(int64(i)))
		b.MustAppendRow(value.Int(int64(i)), value.Int(int64(i)))
		c.MustAppendRow(value.Int(int64(i)), value.Int(int64(i%4)))
	}
	for _, tbl := range []*relation.Table{a, b, c} {
		ds.MustAddTable(tbl)
	}
	design, err := layout.SortKeyDesign(ds, layout.SortKeys{"a": "k", "b": "k", "c": "j"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	store := block.NewStore(block.DefaultCostModel())
	if _, err := design.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	q := workload.NewQuery("chain",
		workload.TableRef{Table: "a"}, workload.TableRef{Table: "b"}, workload.TableRef{Table: "c"})
	q.AddJoin("a", "k", "b", "k")
	q.AddJoin("b", "j", "c", "j")
	q.Filter("c", predicate.NewComparison("v", predicate.Eq, value.Int(0)))

	for _, tc := range []struct {
		passes    int
		truncated int64
		aRows     int
	}{
		{passes: 1, truncated: 1, aRows: 40},
		{passes: 8, truncated: 0, aRows: 10},
	} {
		opts := DefaultOptions()
		opts.MaxReductionPasses = tc.passes
		e := New(store, design, ds, opts)
		got, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.ExecuteReference(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d passes: kernel diverges from reference:\n got %+v\nwant %+v", tc.passes, got, want)
		}
		if got.SurvivingRows["a"] != tc.aRows {
			t.Errorf("%d passes: a keeps %d rows, want %d", tc.passes, got.SurvivingRows["a"], tc.aRows)
		}
		if n := e.StatsSnapshot().ReductionsTruncated; n != tc.truncated {
			t.Errorf("%d passes: ReductionsTruncated = %d, want %d", tc.passes, n, tc.truncated)
		}
	}
}
