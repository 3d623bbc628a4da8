package predicate

import (
	"math/rand"
	"testing"

	"mto/internal/relation"
	"mto/internal/value"
)

// maskRows runs CompileMask and decodes the bitmask into per-row booleans.
func maskRows(t *testing.T, p Predicate, tab *relation.Table) []bool {
	t.Helper()
	n := tab.NumRows()
	mask := make([]uint64, (n+63)/64)
	CompileMask(p, tab, mask)
	out := make([]bool, n)
	for r := 0; r < n; r++ {
		out[r] = mask[r>>6]&(1<<(uint(r)&63)) != 0
	}
	return out
}

// TestCompileMaskMatchesCompile pins the bulk path to the per-row compiled
// path on every supported predicate shape, including null rows.
func TestCompileMaskMatchesCompile(t *testing.T) {
	tab := testTable(t)
	preds := []Predicate{
		NewComparison("x", Lt, value.Int(15)),
		NewComparison("x", Le, value.Int(15)),
		NewComparison("x", Eq, value.Int(25)),
		NewComparison("x", Ne, value.Int(25)),
		NewComparison("x", Gt, value.Int(5)),
		NewComparison("x", Ge, value.Int(15)),
		NewComparison("f", Lt, value.Float(2.0)),
		NewComparison("f", Ge, value.Int(1)),
		NewComparison("s", Eq, value.String("banana")),
		NewComparison("s", Lt, value.String("b")),
		NewIn("x", value.Int(5), value.Int(25)),
		NewNotIn("x", value.Int(5), value.Int(25)),
		NewNotIn("x", value.Int(5), value.Null),
		NewIn("x", value.Float(5), value.Float(15.5)), // 5.0 equals x = 5
		NewNotIn("x", value.Float(25)),
		NewIn("s", value.String("apple"), value.String("apricot")),
		NewNotIn("s", value.String("apple")),
		NewAnd(NewComparison("x", Gt, value.Int(5)), NewComparison("y", Eq, value.Int(10))),
		NewOr(NewComparison("x", Eq, value.Int(5)), NewComparison("y", Eq, value.Int(0))),
		True(),
		False(),
		NewComparison("missing", Lt, value.Int(1)),
		// LIKE: every specialized matcher shape plus the recursive fallback.
		NewLike("s", "apple"),
		NewLike("s", "ap%"),
		NewLike("s", "%na"),
		NewLike("s", "%an%"),
		NewLike("s", "a_p%"),
		NewNotLike("s", "ap%"),
		NewLike("x", "a%"),
		NewAnd(NewComparison("x", Gt, value.Int(5)), NewLike("s", "a%")),
		NewOr(NewComparison("x", Eq, value.Int(5)), NewLike("s", "%e")),
	}
	for _, p := range preds {
		got := maskRows(t, p, tab)
		fn := Compile(p, tab)
		for r := 0; r < tab.NumRows(); r++ {
			if want := fn(r); got[r] != want {
				t.Errorf("%s: row %d mask=%v compile=%v", p, r, got[r], want)
			}
		}
	}
}

// TestCompileMaskOrChildIsolation pins the fix for Or children sharing the
// accumulator mask: an And child must not AND its conjuncts against earlier
// disjuncts' bits, and a leaf child's null-clearing must not wipe rows that
// an earlier disjunct already matched.
func TestCompileMaskOrChildIsolation(t *testing.T) {
	tab := testTable(t)
	preds := []Predicate{
		// Row 0 matches x=5; the And child is false there (s="apple"), and the
		// broken path computed (x=5 OR y=10) AND s="banana", dropping row 0.
		NewOr(NewComparison("x", Eq, value.Int(5)),
			NewAnd(NewComparison("y", Eq, value.Int(10)), NewComparison("s", Eq, value.String("banana")))),
		// Row 3 matches y=0 but has s=null; the s-children's clearNulls must
		// not clear the bit the first disjunct set.
		NewOr(NewComparison("y", Eq, value.Int(0)), NewComparison("s", Eq, value.String("apple"))),
		NewOr(NewComparison("y", Eq, value.Int(0)), NewLike("s", "z%")),
		NewOr(NewComparison("y", Eq, value.Int(0)), NewIn("s", value.String("apple"))),
		// Row 2 matches x=25 but has f=null.
		NewOr(NewComparison("x", Eq, value.Int(25)), NewComparison("f", Gt, value.Float(100))),
		// Nested: And under Or under And.
		NewAnd(NewComparison("x", Gt, value.Int(0)),
			NewOr(NewComparison("x", Eq, value.Int(5)),
				NewAnd(NewComparison("y", Eq, value.Int(10)), NewComparison("s", Eq, value.String("banana"))))),
	}
	for _, p := range preds {
		got := maskRows(t, p, tab)
		for r := 0; r < tab.NumRows(); r++ {
			if want := p.EvalRow(tab, r); got[r] != want {
				t.Errorf("%s: row %d mask=%v EvalRow=%v", p, r, got[r], want)
			}
		}
	}
}

// TestCompileMaskFallback covers the shapes that once fell back to the
// per-row path — column comparisons, alone and under And/Or — and pins that
// the bulk path now evaluates them in place, agreeing with EvalRow.
func TestCompileMaskFallback(t *testing.T) {
	tab := testTable(t)
	colCmp := &ColumnComparison{Left: "x", Op: Lt, Right: "y"}
	preds := []Predicate{
		colCmp,
		NewAnd(NewComparison("x", Gt, value.Int(5)), colCmp),
		NewOr(NewComparison("x", Gt, value.Int(5)), colCmp),
		&ColumnComparison{Left: "f", Op: Ge, Right: "x"},
		&ColumnComparison{Left: "s", Op: Lt, Right: "s"},
		&ColumnComparison{Left: "s", Op: Eq, Right: "x"},
		&ColumnComparison{Left: "nope", Op: Lt, Right: "x"},
	}
	for _, p := range preds {
		got := maskRows(t, p, tab)
		for r := 0; r < tab.NumRows(); r++ {
			if want := p.EvalRow(tab, r); got[r] != want {
				t.Errorf("%s: row %d mask=%v EvalRow=%v", p, r, got[r], want)
			}
		}
	}
}

// TestCompileMaskLargeRandom cross-checks the branchless word loops against
// Compile on a table spanning several mask words with interspersed nulls.
func TestCompileMaskLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := relation.NewTable(relation.MustSchema("big",
		relation.Column{Name: "v", Type: value.KindInt},
	))
	const n = 1000
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			tab.MustAppendRow(value.Null)
		} else {
			tab.MustAppendRow(value.Int(int64(rng.Intn(100))))
		}
	}
	for _, p := range []Predicate{
		NewComparison("v", Lt, value.Int(50)),
		NewComparison("v", Ge, value.Int(93)),
		NewIn("v", value.Int(1), value.Int(2), value.Int(3)),
	} {
		got := maskRows(t, p, tab)
		fn := Compile(p, tab)
		for r := 0; r < n; r++ {
			if want := fn(r); got[r] != want {
				t.Fatalf("%s: row %d mask=%v compile=%v", p, r, got[r], want)
			}
		}
	}
}
