package engine

import (
	"reflect"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/predicate"
	"mto/internal/workload"
)

// TestColumnComparisonFilters runs same-row column comparisons through
// every scan path — the reference executor, the decode path on the
// in-memory backend, and the compressed scan on the disk backend — and
// requires identical Results. A comparison naming a missing column must
// match nothing rather than panic.
func TestColumnComparisonFilters(t *testing.T) {
	ds := starDS(t, 100, 10000, 21)
	mem, design := installBaseline(t, ds, 500)
	disk, err := colstore.NewStore(t.TempDir(), 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if _, err := design.Install(disk, nil, 0); err != nil {
		t.Fatal(err)
	}

	fact := ds.Table("fact")
	dLessV := 0
	for r := 0; r < fact.NumRows(); r++ {
		if fact.ValueByName(r, "d").Int() < fact.ValueByName(r, "v").Int() {
			dLessV++
		}
	}
	for _, tc := range []struct {
		filter predicate.Predicate
		want   int
	}{
		{&predicate.ColumnComparison{Left: "d", Op: predicate.Lt, Right: "v"}, dLessV},
		{&predicate.ColumnComparison{Left: "nope", Op: predicate.Lt, Right: "v"}, 0},
		{&predicate.ColumnComparison{Left: "v", Op: predicate.Ge, Right: "nope"}, 0},
	} {
		q := workload.NewQuery("colcmp", workload.TableRef{Table: "fact"})
		q.Filter("fact", tc.filter)
		ref, err := New(mem, design, ds, DefaultOptions()).ExecuteReference(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := ref.SurvivingRows["fact"]; got != tc.want {
			t.Errorf("%s: reference survivors = %d, want %d", tc.filter, got, tc.want)
		}
		for name, store := range map[string]block.Backend{"mem": mem, "disk": disk} {
			res, err := New(store, design, ds, DefaultOptions()).Execute(q)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.filter, name, err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("%s on %s: result diverges from reference:\n got %+v\nwant %+v", tc.filter, name, res, ref)
			}
		}
	}
}
