package predicate

import (
	"fmt"

	"mto/internal/relation"
	"mto/internal/value"
)

// CompileMask evaluates p over every row of t at once, setting bit r of
// mask (stored in mask[r>>6]) for each matching row: bit r is set iff
// p.EvalRow(t, r) holds, save for the NaN exception documented on
// ScanNode. Every predicate compiles. The operator dispatches
// once outside the row loop, so each leaf runs a tight per-type loop
// instead of a closure call per row; column comparisons compare the two
// column vectors directly. mask must be zeroed and hold at least
// (t.NumRows()+63)/64 words.
//
// Its leaves mirror CompileScan's: the compressed scan path evaluates the
// same normalized literals over encoded pages.
func CompileMask(p Predicate, t *relation.Table, mask []uint64) {
	switch q := p.(type) {
	case *Comparison:
		ci, ok := t.Schema().ColumnIndex(q.Column)
		if !ok {
			return // no such column: matches nothing, mask stays zero
		}
		kind := t.Schema().Column(ci).Type
		if lowered, ok := lowerComparison(q, kind); ok {
			CompileMask(lowered, t, mask)
			return
		}
		switch kind {
		case value.KindInt:
			maskCompare(t.Ints(ci), q.Op, q.Value.Int(), mask)
		case value.KindFloat:
			maskCompare(t.Floats(ci), q.Op, q.Value.AsFloat(), mask)
		default:
			maskCompare(t.Strings(ci), q.Op, q.Value.Str(), mask)
		}
		clearNulls(t.Nulls(ci), mask)
	case *ColumnComparison:
		li, lok := t.Schema().ColumnIndex(q.Left)
		ri, rok := t.Schema().ColumnIndex(q.Right)
		if !lok || !rok {
			return
		}
		lk, rk := t.Schema().Column(li).Type, t.Schema().Column(ri).Type
		switch {
		case lk == value.KindInt && rk == value.KindInt:
			CompareColumns(t.Ints(li), t.Ints(ri), q.Op, mask)
		case lk == value.KindString && rk == value.KindString:
			CompareColumns(t.Strings(li), t.Strings(ri), q.Op, mask)
		case numericKind(lk) && numericKind(rk):
			compareWidened(t, li, ri, q.Op, mask)
		default:
			return // incomparable kinds: matches nothing
		}
		clearNulls(t.Nulls(li), mask)
		clearNulls(t.Nulls(ri), mask)
	case *InList:
		ci, ok := t.Schema().ColumnIndex(q.Column)
		if !ok {
			return
		}
		switch t.Schema().Column(ci).Type {
		case value.KindInt:
			node, lowered := newIntIn(q)
			if lowered != nil {
				CompileMask(lowered, t, mask)
				return
			}
			maskInList(t.Ints(ci), node.Set, node.Negate, node.HasNullLit, mask)
		case value.KindFloat:
			node := newFloatIn(q)
			for r, v := range t.Floats(ci) {
				if node.Matches(v) {
					mask[r>>6] |= 1 << (uint(r) & 63)
				}
			}
		default:
			node := newStrIn(q)
			maskInList(t.Strings(ci), node.Set, node.Negate, node.HasNullLit, mask)
		}
		clearNulls(t.Nulls(ci), mask)
	case *Like:
		ci, ok := t.Schema().ColumnIndex(q.Column)
		if !ok || t.Schema().Column(ci).Type != value.KindString {
			return // missing or non-string column: LIKE matches nothing
		}
		match := likeMatcher(q.Pattern)
		neg := q.Negate_
		for r, s := range t.Strings(ci) {
			if match(s) != neg {
				mask[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		// Null rows never match, not even NOT LIKE (SQL three-valued logic,
		// mirroring EvalRow).
		clearNulls(t.Nulls(ci), mask)
	case *And:
		if len(q.Children) == 0 {
			setAll(mask, t.NumRows()) // the empty conjunction is TRUE
			return
		}
		CompileMask(q.Children[0], t, mask)
		scratch := make([]uint64, len(mask))
		for _, c := range q.Children[1:] {
			clear(scratch)
			CompileMask(c, t, scratch)
			for w := range mask {
				mask[w] &= scratch[w]
			}
		}
	case *Or:
		// Each child must be evaluated into a clean mask: children AND in
		// conjuncts and clear null-row bits, and either would corrupt bits
		// already accumulated by earlier disjuncts if they shared the mask.
		if len(q.Children) == 0 {
			return // the empty disjunction is FALSE
		}
		CompileMask(q.Children[0], t, mask)
		scratch := make([]uint64, len(mask))
		for _, c := range q.Children[1:] {
			clear(scratch)
			CompileMask(c, t, scratch)
			for w := range mask {
				mask[w] |= scratch[w]
			}
		}
	case Const:
		if bool(q) {
			setAll(mask, t.NumRows())
		}
	default:
		panic(fmt.Sprintf("predicate: CompileMask: unknown predicate type %T", p))
	}
}

// compareWidened is CompareColumns over two numeric columns compared as
// float64: an int side widens as in EvalRow, a chunk at a time so no
// table-sized copy is made.
func compareWidened(t *relation.Table, li, ri int, op Op, mask []uint64) {
	const chunk = 1024 // a multiple of 64, so chunks start on mask words
	var lbuf, rbuf [chunk]float64
	n := t.NumRows()
	for off := 0; off < n; off += chunk {
		end := min(off+chunk, n)
		CompareColumns(widenChunk(t, li, off, end, lbuf[:]), widenChunk(t, ri, off, end, rbuf[:]), op, mask[off>>6:])
	}
}

// widenChunk returns rows [off, end) of numeric column ci as float64s,
// converting an int column into buf.
func widenChunk(t *relation.Table, ci, off, end int, buf []float64) []float64 {
	if t.Schema().Column(ci).Type == value.KindFloat {
		return t.Floats(ci)[off:end]
	}
	out := buf[:end-off]
	for i, v := range t.Ints(ci)[off:end] {
		out[i] = float64(v)
	}
	return out
}

// maskCompare sets the bit of every row whose value satisfies (v op lit).
// The operator switch runs once; each arm is a tight branchless loop (the
// bool-to-bit conversion compiles to a flag set, so ~50%-selective cuts pay
// no branch mispredictions).
func maskCompare[T int64 | float64 | string](vals []T, op Op, lit T, mask []uint64) {
	switch op {
	case Eq:
		for r, v := range vals {
			var b uint64
			if v == lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Ne:
		for r, v := range vals {
			var b uint64
			if v != lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Lt:
		for r, v := range vals {
			var b uint64
			if v < lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Le:
		for r, v := range vals {
			var b uint64
			if v <= lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Gt:
		for r, v := range vals {
			var b uint64
			if v > lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	default: // Ge
		for r, v := range vals {
			var b uint64
			if v >= lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	}
}

// maskInList mirrors Compile's IN semantics: NOT IN with a null literal
// matches nothing.
func maskInList[T int64 | string](vals []T, set map[T]struct{}, neg, hasNullLit bool, mask []uint64) {
	if neg && hasNullLit {
		return
	}
	if neg {
		for r, v := range vals {
			if _, found := set[v]; !found {
				mask[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		return
	}
	for r, v := range vals {
		if _, found := set[v]; found {
			mask[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

// clearNulls clears the bits of null rows (nulls never match a predicate).
func clearNulls(nulls []bool, mask []uint64) {
	for r, isNull := range nulls {
		if isNull {
			mask[r>>6] &^= 1 << (uint(r) & 63)
		}
	}
}

// setAll sets bits [0, n), leaving the last word's tail clear.
func setAll(mask []uint64, n int) {
	for w := 0; w < n>>6; w++ {
		mask[w] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		mask[n>>6] = (1 << uint(rem)) - 1
	}
}
