package predicate

import (
	"math"
	"math/rand"
	"testing"

	"mto/internal/relation"
	"mto/internal/value"
)

var allOps = []Op{Eq, Ne, Lt, Le, Gt, Ge}

// kindPairTable has two columns of each kind, with values drawn from a
// small shared range (so equal pairs are common), a NaN cadence in the
// float columns, and an independent null cadence per column.
func kindPairTable(t *testing.T, n int) *relation.Table {
	t.Helper()
	cols := []relation.Column{
		{Name: "i1", Type: value.KindInt}, {Name: "i2", Type: value.KindInt},
		{Name: "f1", Type: value.KindFloat}, {Name: "f2", Type: value.KindFloat},
		{Name: "s1", Type: value.KindString}, {Name: "s2", Type: value.KindString},
	}
	tab := relation.NewTable(relation.MustSchema("kp", cols...))
	rng := rand.New(rand.NewSource(11))
	nullEvery := []int{5, 7, 4, 6, 3, 9}
	for r := 0; r < n; r++ {
		row := make([]value.Value, len(cols))
		for c, col := range cols {
			v := rng.Intn(6)
			switch col.Type {
			case value.KindInt:
				row[c] = value.Int(int64(v))
			case value.KindFloat:
				f := float64(v) / 2 // half the values are integral
				if rng.Intn(8) == 0 {
					f = math.NaN()
				}
				row[c] = value.Float(f)
			default:
				row[c] = value.String(string(rune('a' + v)))
			}
			if r%nullEvery[c] == 1 {
				row[c] = value.Null
			}
		}
		tab.MustAppendRow(row...)
	}
	return tab
}

// checkAgainstEvalRow asserts that Compile and CompileMask both give
// EvalRow's answer on every row of tab.
func checkAgainstEvalRow(t *testing.T, p Predicate, tab *relation.Table) {
	t.Helper()
	fn := Compile(p, tab)
	got := maskRows(t, p, tab)
	for r := 0; r < tab.NumRows(); r++ {
		want := p.EvalRow(tab, r)
		if c := fn(r); c != want {
			t.Fatalf("%s: row %d Compile=%v EvalRow=%v", p, r, c, want)
		}
		if got[r] != want {
			t.Fatalf("%s: row %d CompileMask=%v EvalRow=%v", p, r, got[r], want)
		}
	}
}

// TestColumnComparisonMatchesEvalRow covers every kind pair (including
// incomparable pairs, a column against itself, and a missing column) and
// every operator, with nulls and float NaNs, across enough rows to span
// several mask words and widening chunks.
func TestColumnComparisonMatchesEvalRow(t *testing.T) {
	tab := kindPairTable(t, 2500)
	cols := []string{"i1", "i2", "f1", "f2", "s1", "s2", "nope"}
	for _, l := range cols {
		for _, r := range cols {
			for _, op := range allOps {
				checkAgainstEvalRow(t, &ColumnComparison{Left: l, Op: op, Right: r}, tab)
			}
		}
	}
}

// TestIntColumnFloatLiterals pins int-column leaves with float literals to
// EvalRow, which compares them in float64: fractional and integral
// literals, literals beyond 2^53 where several ints widen to one float,
// the int64 range edges, infinities, and NaN (equal to everything).
func TestIntColumnFloatLiterals(t *testing.T) {
	tab := relation.NewTable(relation.MustSchema("w", relation.Column{Name: "x", Type: value.KindInt}))
	const p53 = int64(1) << 53
	xs := []int64{-3, 0, 2, 3, 4, 7, p53 - 1, p53, p53 + 1, p53 + 2, p53 + 3,
		math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 1500, math.MinInt64, math.MinInt64 + 1}
	for _, x := range xs {
		tab.MustAppendRow(value.Int(x))
	}
	tab.MustAppendRow(value.Null)
	lits := []float64{3, 3.5, -2.5, 0, float64(p53), float64(p53 + 2), float64(p53) + 4,
		two63, -two63, math.Nextafter(two63, 0), math.Inf(1), math.Inf(-1), math.NaN()}
	for _, f := range lits {
		for _, op := range allOps {
			checkAgainstEvalRow(t, NewComparison("x", op, value.Float(f)), tab)
		}
		checkAgainstEvalRow(t, NewIn("x", value.Float(f)), tab)
		checkAgainstEvalRow(t, NewNotIn("x", value.Float(f), value.Int(4)), tab)
		checkAgainstEvalRow(t, NewIn("x", value.Int(-3), value.Float(f), value.Null), tab)
	}
	// x IN (3.0) matches the row holding 3.
	if got := maskRows(t, NewIn("x", value.Float(3)), tab); !got[3] {
		t.Error("x IN (3.0) missed x = 3")
	}
}

// TestFloatInListMatchesEvalRow covers float-column IN lists: int and
// float literals, NaN on either side, NULL literals, and NOT IN.
func TestFloatInListMatchesEvalRow(t *testing.T) {
	tab := kindPairTable(t, 300)
	lists := [][]value.Value{
		{value.Float(1.5)},
		{value.Int(2), value.Float(0.5)},
		{value.Float(math.NaN())},
		{value.Float(1), value.Null},
		{value.String("a"), value.Float(2)},
		{value.Float(math.Copysign(0, -1))},
		{},
	}
	for _, l := range lists {
		checkAgainstEvalRow(t, NewIn("f1", l...), tab)
		checkAgainstEvalRow(t, NewNotIn("f1", l...), tab)
	}
}

// TestEvalRowMissingColumn pins that every leaf over a missing column
// matches nothing instead of panicking.
func TestEvalRowMissingColumn(t *testing.T) {
	tab := testTable(t)
	for _, p := range []Predicate{
		NewComparison("nope", Eq, value.Int(1)),
		&ColumnComparison{Left: "nope", Op: Lt, Right: "x"},
		&ColumnComparison{Left: "x", Op: Ne, Right: "nope"},
		NewIn("nope", value.Int(1)),
		NewNotIn("nope", value.Int(1)),
		NewNotLike("nope", "a%"),
	} {
		checkAgainstEvalRow(t, p, tab)
		for r := 0; r < tab.NumRows(); r++ {
			if p.EvalRow(tab, r) {
				t.Errorf("%s: row %d matched", p, r)
			}
		}
	}
}
