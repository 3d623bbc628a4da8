package predicate

import (
	"mto/internal/relation"
	"mto/internal/value"
)

// Compile binds p to a table, returning a fast row evaluator. Column indexes
// are resolved once and literals are normalized once (the same helpers as
// CompileMask and CompileScan), so no leaf boxes a Value or looks a column
// up by name per row. Record routing through qd-trees — the hottest loop in
// offline optimization — uses compiled predicates.
func Compile(p Predicate, t *relation.Table) func(row int) bool {
	never := func(int) bool { return false }
	switch q := p.(type) {
	case *Comparison:
		ci, ok := t.Schema().ColumnIndex(q.Column)
		if !ok {
			return never
		}
		kind := t.Schema().Column(ci).Type
		if lowered, ok := lowerComparison(q, kind); ok {
			return Compile(lowered, t)
		}
		switch kind {
		case value.KindInt:
			return compileCmp(t, ci, t.Ints(ci), q.Op, q.Value.Int())
		case value.KindFloat:
			return compileCmp(t, ci, t.Floats(ci), q.Op, q.Value.AsFloat())
		}
		return compileCmp(t, ci, t.Strings(ci), q.Op, q.Value.Str())
	case *ColumnComparison:
		li, lok := t.Schema().ColumnIndex(q.Left)
		ri, rok := t.Schema().ColumnIndex(q.Right)
		if !lok || !rok {
			return never
		}
		lk, rk := t.Schema().Column(li).Type, t.Schema().Column(ri).Type
		op := q.Op
		switch {
		case lk == value.KindInt && rk == value.KindInt:
			return compileColCmp(t, li, ri, t.Ints(li), t.Ints(ri), op)
		case lk == value.KindFloat && rk == value.KindFloat:
			return compileColCmp(t, li, ri, t.Floats(li), t.Floats(ri), op)
		case lk == value.KindString && rk == value.KindString:
			return compileColCmp(t, li, ri, t.Strings(li), t.Strings(ri), op)
		case !numericKind(lk) || !numericKind(rk):
			return never // incomparable kinds
		}
		// Mixed int/float: the int side widens to float64, as in EvalRow.
		l, r := floatAt(t, li), floatAt(t, ri)
		return func(row int) bool {
			return !t.IsNullAt(row, li) && !t.IsNullAt(row, ri) && op.apply(cmp3(l(row), r(row)))
		}
	case *InList:
		ci, ok := t.Schema().ColumnIndex(q.Column)
		if !ok {
			return never
		}
		switch t.Schema().Column(ci).Type {
		case value.KindInt:
			node, lowered := newIntIn(q)
			if lowered != nil {
				return Compile(lowered, t)
			}
			return compileIn(t, ci, t.Ints(ci), node.Set, node.Negate, node.HasNullLit)
		case value.KindFloat:
			node, vals := newFloatIn(q), t.Floats(ci)
			return func(row int) bool {
				return !t.IsNullAt(row, ci) && node.Matches(vals[row])
			}
		}
		node := newStrIn(q)
		return compileIn(t, ci, t.Strings(ci), node.Set, node.Negate, node.HasNullLit)
	case *And:
		fns := make([]func(int) bool, len(q.Children))
		for i, c := range q.Children {
			fns[i] = Compile(c, t)
		}
		return func(row int) bool {
			for _, fn := range fns {
				if !fn(row) {
					return false
				}
			}
			return true
		}
	case *Or:
		fns := make([]func(int) bool, len(q.Children))
		for i, c := range q.Children {
			fns[i] = Compile(c, t)
		}
		return func(row int) bool {
			for _, fn := range fns {
				if fn(row) {
					return true
				}
			}
			return false
		}
	case Const:
		b := bool(q)
		return func(int) bool { return b }
	}
	// LIKE and unknown shapes: generic evaluation.
	return func(row int) bool { return p.EvalRow(t, row) }
}

// compileCmp is (col op lit) over column ci's backing vector vals.
func compileCmp[T int64 | float64 | string](t *relation.Table, ci int, vals []T, op Op, lit T) func(int) bool {
	return func(row int) bool {
		if t.IsNullAt(row, ci) {
			return false
		}
		v := vals[row]
		switch op {
		case Eq:
			return v == lit
		case Ne:
			return v != lit
		case Lt:
			return v < lit
		case Le:
			return v <= lit
		case Gt:
			return v > lit
		default:
			return v >= lit
		}
	}
}

// compileColCmp is (left op right) over two same-kind columns, with
// EvalRow's three-way compare.
func compileColCmp[T int64 | float64 | string](t *relation.Table, li, ri int, l, r []T, op Op) func(int) bool {
	return func(row int) bool {
		return !t.IsNullAt(row, li) && !t.IsNullAt(row, ri) && op.apply(cmp3(l[row], r[row]))
	}
}

// compileIn is col [NOT] IN set over column ci's backing vector vals: NOT
// IN with a null literal matches nothing.
func compileIn[T int64 | string](t *relation.Table, ci int, vals []T, set map[T]struct{}, neg, hasNullLit bool) func(int) bool {
	return func(row int) bool {
		if t.IsNullAt(row, ci) {
			return false
		}
		_, found := set[vals[row]]
		if neg {
			return !hasNullLit && !found
		}
		return found
	}
}

// floatAt reads numeric column ci as float64, widening ints.
func floatAt(t *relation.Table, ci int) func(int) float64 {
	if t.Schema().Column(ci).Type == value.KindFloat {
		vals := t.Floats(ci)
		return func(row int) float64 { return vals[row] }
	}
	vals := t.Ints(ci)
	return func(row int) float64 { return float64(vals[row]) }
}
