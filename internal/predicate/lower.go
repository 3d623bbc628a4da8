package predicate

import (
	"math"
	"sort"

	"mto/internal/value"
)

// This file holds the literal normalization shared by the three bound
// evaluators (Compile, CompileMask, CompileScan), so each one only needs
// arms for same-kind leaves. EvalRow compares through value.Compare: mixed
// int/float pairs compare in float64, incomparable kinds and NULLs never
// match, and the three-way compare maps a float NaN to "equal". The helpers
// below rewrite every other leaf shape into an exactly equivalent same-kind
// leaf, or fold it to a constant.

// two63 is 2^63, the float64 just above math.MaxInt64 (which widens to it).
const two63 = 9223372036854775808.0

// comparableKinds reports whether two column kinds order against each
// other: the same kind, or both numeric.
func comparableKinds(a, b value.Kind) bool {
	if a == value.KindNull || b == value.KindNull {
		return false
	}
	return a == b || (numericKind(a) && numericKind(b))
}

func numericKind(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }

// lowerComparison rewrites a comparison whose literal does not have the
// column's kind. A NULL or incomparable literal matches nothing; a float
// literal against an int column becomes the equivalent comparison(s) over
// int literals. It reports false when c is already a same-kind leaf (a
// float column also takes int literals: they widen exactly).
func lowerComparison(c *Comparison, kind value.Kind) (Predicate, bool) {
	lk := c.Value.Kind()
	switch {
	case lk == kind, kind == value.KindFloat && lk == value.KindInt:
		return nil, false
	case kind == value.KindInt && lk == value.KindFloat:
		return intVsFloat(c.Column, c.Op, c.Value.Float()), true
	}
	return Const(false), true
}

// intVsFloat is (col op f) over an int column, evaluated as EvalRow does —
// float64(col) against f — rewritten into int comparisons. Widening is
// monotone, so float64(x) < f exactly when x is below the least int that
// widens to at least f, and so on for the other operators.
func intVsFloat(col string, op Op, f float64) Predicate {
	cmp := func(op Op, x int64) Predicate { return NewComparison(col, op, value.Int(x)) }
	nonNull := cmp(Ge, math.MinInt64) // every non-null row
	if math.IsNaN(f) {
		// The three-way compare reports NaN as equal to everything.
		if op == Eq || op == Le || op == Ge {
			return nonNull
		}
		return Const(false)
	}
	lo, loOK := minIntWideningToAtLeast(f)
	hi, hiOK := maxIntWideningToAtMost(f)
	switch op {
	case Lt:
		if !loOK {
			return nonNull
		}
		return cmp(Lt, lo)
	case Ge:
		if !loOK {
			return Const(false)
		}
		return cmp(Ge, lo)
	case Gt:
		if !hiOK {
			return nonNull
		}
		return cmp(Gt, hi)
	case Le:
		if !hiOK {
			return Const(false)
		}
		return cmp(Le, hi)
	}
	empty := !loOK || !hiOK || lo > hi // no int widens to exactly f
	if op == Eq {
		switch {
		case empty:
			return Const(false)
		case lo == hi:
			return cmp(Eq, lo)
		}
		return NewAnd(cmp(Ge, lo), cmp(Le, hi))
	}
	if empty { // Ne
		return nonNull
	}
	return NewOr(cmp(Lt, lo), cmp(Gt, hi))
}

// minIntWideningToAtLeast returns the least int64 x with float64(x) >= f
// (f not NaN), or false when there is none.
func minIntWideningToAtLeast(f float64) (int64, bool) {
	switch {
	case f <= -two63:
		return math.MinInt64, true
	case f > two63:
		return 0, false
	}
	x := int64(math.MaxInt64) // widens to 2^63 >= f
	if c := math.Ceil(f); c < two63 {
		x = int64(c)
	}
	// Beyond 2^53 several ints round to the same float64; step down to the
	// least of them (at most half a ulp, 1024 steps).
	for x > math.MinInt64 && float64(x-1) >= f {
		x--
	}
	return x, true
}

// maxIntWideningToAtMost returns the greatest int64 x with float64(x) <= f
// (f not NaN), or false when there is none.
func maxIntWideningToAtMost(f float64) (int64, bool) {
	switch {
	case f >= two63:
		return math.MaxInt64, true
	case f < -two63:
		return 0, false
	}
	x := int64(math.Floor(f))
	for x < math.MaxInt64 && float64(x+1) <= f {
		x++
	}
	return x, true
}

// newIntIn normalizes col [NOT] IN over an int column. An int row value v
// equals a float literal f under EvalRow when float64(v) == f, so each
// float literal contributes the ints widening to it (one int for an
// integral f below 2^53, none for a fractional f). A NaN literal equals
// every value: IN matches every non-null row and NOT IN none, both of
// which the returned Predicate expresses; it is nil otherwise.
func newIntIn(q *InList) (*ScanInInt, Predicate) {
	node := &ScanInInt{Column: q.Column, Set: make(map[int64]struct{}, len(q.Values)), Negate: q.Negate_}
	for _, v := range q.Values {
		switch v.Kind() {
		case value.KindNull:
			node.HasNullLit = true
		case value.KindInt:
			node.Set[v.Int()] = struct{}{}
		case value.KindFloat:
			f := v.Float()
			if math.IsNaN(f) {
				if q.Negate_ {
					return nil, Const(false)
				}
				return nil, NewNotIn(q.Column) // NOT IN () = every non-null row
			}
			lo, loOK := minIntWideningToAtLeast(f)
			hi, hiOK := maxIntWideningToAtMost(f)
			for x := lo; loOK && hiOK && x <= hi; x++ {
				node.Set[x] = struct{}{}
				if x == math.MaxInt64 {
					break
				}
			}
		}
	}
	node.Sorted = make([]int64, 0, len(node.Set))
	for v := range node.Set {
		node.Sorted = append(node.Sorted, v)
	}
	sort.Slice(node.Sorted, func(i, j int) bool { return node.Sorted[i] < node.Sorted[j] })
	return node, nil
}

// newStrIn normalizes col [NOT] IN over a string column.
func newStrIn(q *InList) *ScanInStr {
	node := &ScanInStr{Column: q.Column, Set: make(map[string]struct{}, len(q.Values)), Negate: q.Negate_}
	for _, v := range q.Values {
		switch v.Kind() {
		case value.KindNull:
			node.HasNullLit = true
		case value.KindString:
			node.Set[v.Str()] = struct{}{}
		}
	}
	node.Sorted = make([]string, 0, len(node.Set))
	for v := range node.Set {
		node.Sorted = append(node.Sorted, v)
	}
	sort.Strings(node.Sorted)
	return node
}

// newFloatIn normalizes col [NOT] IN over a float column: numeric literals
// widen to float64, others drop out.
func newFloatIn(q *InList) *ScanInFloat {
	node := &ScanInFloat{Column: q.Column, Set: make(map[float64]struct{}, len(q.Values)), Negate: q.Negate_}
	for _, v := range q.Values {
		switch {
		case v.IsNull():
			node.HasNullLit = true
		case numericKind(v.Kind()):
			f := v.AsFloat()
			if math.IsNaN(f) {
				node.NaNLit = true
			} else {
				node.Set[f] = struct{}{}
			}
		}
	}
	return node
}

// Matches reports whether a non-null row value v satisfies q, with
// EvalRow's semantics: under the three-way compare a NaN literal equals
// every value and a NaN value equals every numeric literal, and NOT IN
// with a NULL literal matches nothing.
func (q *ScanInFloat) Matches(v float64) bool {
	_, found := q.Set[v]
	found = found || q.NaNLit || (v != v && len(q.Set) > 0)
	if q.Negate {
		return !q.HasNullLit && !found
	}
	return found
}

// CompareColumns sets bit r of mask (stored in mask[r>>6]) for every r
// where a[r] op b[r] holds, mirroring EvalRow: the three-way compare
// (-1 when a < b, +1 when a > b, else 0) decides the operator, so a float
// NaN compares equal to everything. Each operator is a branchless loop;
// nulls are the caller's to clear.
func CompareColumns[T int64 | float64 | string](a, b []T, op Op, mask []uint64) {
	b = b[:len(a)]
	switch op {
	case Eq:
		for r, x := range a {
			mask[r>>6] |= ((bit(x < b[r]) | bit(x > b[r])) ^ 1) << (uint(r) & 63)
		}
	case Ne:
		for r, x := range a {
			mask[r>>6] |= (bit(x < b[r]) | bit(x > b[r])) << (uint(r) & 63)
		}
	case Lt:
		for r, x := range a {
			mask[r>>6] |= bit(x < b[r]) << (uint(r) & 63)
		}
	case Le:
		for r, x := range a {
			mask[r>>6] |= (bit(x > b[r]) ^ 1) << (uint(r) & 63)
		}
	case Gt:
		for r, x := range a {
			mask[r>>6] |= bit(x > b[r]) << (uint(r) & 63)
		}
	default: // Ge
		for r, x := range a {
			mask[r>>6] |= (bit(x < b[r]) ^ 1) << (uint(r) & 63)
		}
	}
}

// bit converts a bool to 0/1 without a branch.
func bit(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// cmp3 is the three-way compare of value.Compare for same-kind operands.
func cmp3[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
