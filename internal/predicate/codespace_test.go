package predicate

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"mto/internal/relation"
	"mto/internal/value"
)

func kindOfTable(tab *relation.Table) func(string) (value.Kind, bool) {
	return func(col string) (value.Kind, bool) {
		ci, ok := tab.Schema().ColumnIndex(col)
		if !ok {
			return value.KindNull, false
		}
		return tab.Schema().Column(ci).Type, true
	}
}

// TestCompileScanSupportMatchesCompileMask pins that the compressed and
// bulk compilers accept the same shapes — every one, including column
// comparisons, float IN lists, mixed-kind and incomparable literals and
// missing columns — so no shape falls back to a per-row pass. CompileMask
// must agree with EvalRow on each, and where CompileScan folds a shape to a
// constant the mask must be that constant.
func TestCompileScanSupportMatchesCompileMask(t *testing.T) {
	tab := testTable(t)
	kindOf := kindOfTable(tab)
	colCmp := &ColumnComparison{Left: "x", Op: Lt, Right: "y"}
	preds := []Predicate{
		// One comparison per column kind, and kind mismatches.
		NewComparison("x", Lt, value.Int(15)),
		NewComparison("f", Ge, value.Int(1)),
		NewComparison("s", Lt, value.String("b")),
		NewComparison("missing", Lt, value.Int(1)),
		NewComparison("x", Lt, value.Float(15.5)),
		NewComparison("x", Eq, value.Float(15)),
		NewComparison("x", Eq, value.String("five")),
		NewComparison("s", Eq, value.Int(5)),
		NewComparison("f", Eq, value.String("one")),
		NewComparison("f", Eq, value.Null),
		// IN lists over every column kind.
		NewNotIn("x", value.Int(5), value.Null),
		NewIn("x", value.Float(5), value.Float(15.5)),
		NewNotIn("x", value.Float(25)),
		NewIn("f", value.Float(1.5), value.Int(0)),
		NewNotIn("f", value.Float(1.5)),
		NewIn("s", value.String("apple"), value.String("apricot")),
		NewIn("missing", value.Int(1)),
		// LIKE on string, non-string and missing columns.
		NewNotLike("s", "%na"),
		NewLike("x", "a%"),
		NewLike("missing", "a%"),
		// Column comparisons over every kind pairing.
		colCmp,
		&ColumnComparison{Left: "f", Op: Ge, Right: "x"},
		&ColumnComparison{Left: "s", Op: Lt, Right: "s"},
		&ColumnComparison{Left: "s", Op: Eq, Right: "x"},
		&ColumnComparison{Left: "nope", Op: Lt, Right: "x"},
		// Composites, including the empty ones.
		NewAnd(NewComparison("x", Gt, value.Int(5)), colCmp),
		NewOr(NewComparison("x", Gt, value.Int(5)), colCmp),
		NewAnd(NewComparison("x", Gt, value.Int(5)), NewComparison("x", Lt, value.Float(1.5))),
		NewOr(NewComparison("x", Eq, value.Int(5)), NewLike("s", "%e")),
		&And{},
		&Or{},
		True(),
		False(),
	}
	for _, p := range preds {
		node := CompileScan(p, kindOf)
		if node == nil {
			t.Errorf("%s: CompileScan returned no node", p)
		}
		got := maskRows(t, p, tab)
		for r := 0; r < tab.NumRows(); r++ {
			if want := p.EvalRow(tab, r); got[r] != want {
				t.Errorf("%s: row %d mask=%v EvalRow=%v", p, r, got[r], want)
			}
			if c, ok := node.(ScanConst); ok && got[r] != bool(c) {
				t.Errorf("%s: CompileScan folded to %v but row %d mask=%v", p, bool(c), r, got[r])
			}
		}
	}
}

// TestCompileScanNormalization checks the literal pre-processing the
// storage engine relies on: sorted distinct IN lists (float literals on an
// int column widened to the ints equal to them), null-literal flags,
// matcher specialization, column-comparison kinds, and the constant
// folding of leaves that match nothing.
func TestCompileScanNormalization(t *testing.T) {
	tab := testTable(t)
	kindOf := kindOfTable(tab)

	node := CompileScan(NewNotIn("x", value.Int(9), value.Int(3), value.Int(9), value.Null, value.Float(7), value.Float(7.5)), kindOf)
	in := node.(*ScanInInt)
	if !in.Negate || !in.HasNullLit {
		t.Errorf("NOT IN flags: negate=%v hasNullLit=%v", in.Negate, in.HasNullLit)
	}
	if want := []int64{3, 7, 9}; !reflect.DeepEqual(in.Sorted, want) {
		t.Errorf("sorted int lits = %v, want %v (7.0 equals 7, 7.5 equals no int)", in.Sorted, want)
	}

	node = CompileScan(NewIn("s", value.String("pear"), value.String("fig"), value.String("pear")), kindOf)
	ins := node.(*ScanInStr)
	if !sort.StringsAreSorted(ins.Sorted) || len(ins.Sorted) != 2 {
		t.Errorf("string lits not sorted-distinct: %v", ins.Sorted)
	}

	inf := CompileScan(NewIn("f", value.Int(2), value.Float(1.5), value.Float(math.NaN()), value.String("x")), kindOf).(*ScanInFloat)
	if len(inf.Set) != 2 || !inf.NaNLit || inf.Negate || inf.HasNullLit {
		t.Errorf("float IN normalized to %+v", inf)
	}

	lk := CompileScan(NewLike("s", "ap%"), kindOf).(*ScanLike)
	if !lk.Match("apple") || lk.Match("pear") {
		t.Error("LIKE matcher not specialized correctly")
	}

	cc := CompileScan(&ColumnComparison{Left: "f", Op: Lt, Right: "x"}, kindOf).(*ScanColCmp)
	if cc.LeftKind != value.KindFloat || cc.RightKind != value.KindInt || cc.Op != Lt {
		t.Errorf("column comparison normalized to %+v", cc)
	}

	// An int column against a fractional float literal becomes an int
	// comparison: x < 15.5 is x < 16.
	if got, ok := CompileScan(NewComparison("x", Lt, value.Float(15.5)), kindOf).(*ScanCmpInt); !ok || got.Op != Lt || got.Lit != 16 {
		t.Errorf("x < 15.5 normalized to %#v", got)
	}

	for _, p := range []Predicate{
		NewComparison("missing", Lt, value.Int(1)),
		NewComparison("x", Eq, value.String("five")),
		NewComparison("x", Eq, value.Float(15.5)),
		NewComparison("f", Lt, value.Null),
		NewIn("missing", value.Int(1)),
		NewNotIn("x", value.Float(math.NaN())),
		NewLike("missing", "a%"),
		NewLike("x", "a%"),
		&ColumnComparison{Left: "missing", Op: Lt, Right: "x"},
		&ColumnComparison{Left: "s", Op: Lt, Right: "x"},
	} {
		node := CompileScan(p, kindOf)
		if c, isConst := node.(ScanConst); !isConst || bool(c) {
			t.Errorf("%s: want ScanConst(false), got %#v", p, node)
		}
	}
}
