package engine

import "testing"

// TestKeyIndexesSharedAcrossEngines runs one workload through engines over
// two layouts of one dataset: the join-key dictionaries, postings and
// translations are built by the first engine's queries and reused by
// every later engine, so builds are bounded by the workload's join columns
// and edges, not by the number of engines.
func TestKeyIndexesSharedAcrossEngines(t *testing.T) {
	ds := snowflakeDS(t, 100, 5000, 3)
	queries := snowflakeWorkload(24)
	storeA, designA := installSnowflake(t, ds, 500)
	storeB, designB := installSnowflake(t, ds, 250)
	builds := func() int {
		n := 0
		for _, name := range ds.TableNames() {
			n += ds.Table(name).KeyCacheBuilds()
		}
		return n
	}
	run := func(e *Engine) {
		for _, q := range queries {
			if _, err := e.Execute(q); err != nil {
				t.Fatal(err)
			}
		}
	}

	run(New(storeA, designA, ds, parallelEngineOptions()))
	first := builds()
	// Four join columns (dim1.id, dim2.id, fact.did1, fact.did2), each
	// with a dictionary and postings, and two join edges translated in
	// at most both directions.
	if first == 0 || first > 4*2+2*2 {
		t.Fatalf("first engine built %d key indexes, want 1..12", first)
	}
	run(New(storeB, designB, ds, parallelEngineOptions()))
	run(New(storeA, designA, ds, parallelEngineOptions()))
	if got := builds(); got != first {
		t.Errorf("key index builds = %d after two more engines, want %d (shared)", got, first)
	}
}
