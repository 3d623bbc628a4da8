package predicate

import (
	"fmt"

	"mto/internal/value"
)

// ScanNode is a predicate compiled for compressed-domain execution: a plan
// tree whose leaves carry kind-checked, pre-normalized literals (IN sets
// built and sorted, LIKE matchers specialized) so a storage engine can
// evaluate them directly against encoded column pages — comparing
// dictionary codes or bit-packed words — without materializing values.
//
// CompileScan and CompileMask are both total and kept in lockstep: every
// predicate compiles, and each leaf's semantics — null handling, NOT IN
// with a null literal, mixed int/float widening — match CompileMask bit
// for bit. That is what lets the compressed scan path promise
// byte-identical results with no per-predicate fallback. Both also match
// EvalRow, with one exception shared by all bound evaluators: a float
// column's NaN rows compare against a literal by IEEE rules (never equal),
// where EvalRow's three-way compare calls NaN equal to everything. Column
// comparisons and float IN lists follow EvalRow there too.
type ScanNode interface {
	scanNode()
}

// ScanAnd matches rows matched by every child.
type ScanAnd struct{ Children []ScanNode }

// ScanOr matches rows matched by at least one child.
type ScanOr struct{ Children []ScanNode }

// ScanConst matches every row (true) or no row (false). Missing-column
// leaves compile to ScanConst(false): they match nothing, like
// CompileMask's zero mask. It never touches a null bitmap — there is no
// column behind it.
type ScanConst bool

// ScanCmpInt is an int-column comparison against an int literal.
type ScanCmpInt struct {
	Column string
	Op     Op
	Lit    int64
}

// ScanCmpFloat is a float-column comparison; int literals arrive widened
// via AsFloat, mirroring CompileMask.
type ScanCmpFloat struct {
	Column string
	Op     Op
	Lit    float64
}

// ScanCmpStr is a string-column comparison against a string literal.
// Sorted dictionary pages evaluate it as a code-range test.
type ScanCmpStr struct {
	Column string
	Op     Op
	Lit    string
}

// ScanInInt is col [NOT] IN over an int column. Set holds the int-kind
// literals plus the ints that widen to each float literal; Sorted is the
// same values ascending and distinct, for merge-joins against sorted page
// dictionaries. HasNullLit records a NULL literal: NOT IN with a NULL
// literal matches nothing.
type ScanInInt struct {
	Column     string
	Set        map[int64]struct{}
	Sorted     []int64
	Negate     bool
	HasNullLit bool
}

// ScanInStr is col [NOT] IN over a string column.
type ScanInStr struct {
	Column     string
	Set        map[string]struct{}
	Sorted     []string
	Negate     bool
	HasNullLit bool
}

// ScanInFloat is col [NOT] IN over a float column. Set holds the numeric
// literals widened to float64, except NaN, which NaNLit records: under
// EvalRow's three-way compare a NaN equals every number. Use Matches.
type ScanInFloat struct {
	Column     string
	Set        map[float64]struct{}
	NaNLit     bool
	Negate     bool
	HasNullLit bool
}

// ScanColCmp is a same-row column comparison, left op right, over two
// comparable columns: int/int, float/float, string/string, or int↔float,
// whose int side widens to float64 as in EvalRow. A null on either side
// never matches.
type ScanColCmp struct {
	Left      string
	LeftKind  value.Kind
	Op        Op
	Right     string
	RightKind value.Kind
}

// ScanLike is col [NOT] LIKE over a string column, with the matcher
// specialized once at compile time (exact/prefix/suffix/substring shapes
// avoid the recursive wildcard walk).
type ScanLike struct {
	Column  string
	Pattern string
	Match   func(string) bool
	Negate  bool
}

func (*ScanAnd) scanNode()      {}
func (*ScanOr) scanNode()       {}
func (ScanConst) scanNode()     {}
func (*ScanCmpInt) scanNode()   {}
func (*ScanCmpFloat) scanNode() {}
func (*ScanCmpStr) scanNode()   {}
func (*ScanInInt) scanNode()    {}
func (*ScanInStr) scanNode()    {}
func (*ScanInFloat) scanNode()  {}
func (*ScanColCmp) scanNode()   {}
func (*ScanLike) scanNode()     {}

// CompileScan compiles p for compressed-domain evaluation against a table
// whose column kinds are reported by kindOf (missing columns return
// ok=false from kindOf). All literal normalization — kind checks, IN-set
// construction and sorting, LIKE matcher specialization — happens here,
// once per (query, table), so per-page evaluation only translates the
// normalized literals into each page's code space.
//
// It accepts every predicate. Leaves that can match nothing — a missing
// column, a NULL or incomparable literal, incomparable column kinds —
// compile to ScanConst(false), where CompileMask leaves the mask zero.
func CompileScan(p Predicate, kindOf func(col string) (value.Kind, bool)) ScanNode {
	switch q := p.(type) {
	case *Comparison:
		kind, ok := kindOf(q.Column)
		if !ok {
			return ScanConst(false) // no such column: matches nothing
		}
		if lowered, ok := lowerComparison(q, kind); ok {
			return CompileScan(lowered, kindOf)
		}
		switch kind {
		case value.KindInt:
			return &ScanCmpInt{Column: q.Column, Op: q.Op, Lit: q.Value.Int()}
		case value.KindFloat:
			return &ScanCmpFloat{Column: q.Column, Op: q.Op, Lit: q.Value.AsFloat()}
		}
		return &ScanCmpStr{Column: q.Column, Op: q.Op, Lit: q.Value.Str()}
	case *ColumnComparison:
		lk, lok := kindOf(q.Left)
		rk, rok := kindOf(q.Right)
		if !lok || !rok || !comparableKinds(lk, rk) {
			return ScanConst(false)
		}
		return &ScanColCmp{Left: q.Left, LeftKind: lk, Op: q.Op, Right: q.Right, RightKind: rk}
	case *InList:
		kind, ok := kindOf(q.Column)
		if !ok {
			return ScanConst(false)
		}
		switch kind {
		case value.KindInt:
			node, lowered := newIntIn(q)
			if lowered != nil {
				return CompileScan(lowered, kindOf)
			}
			return node
		case value.KindFloat:
			return newFloatIn(q)
		}
		return newStrIn(q)
	case *Like:
		kind, ok := kindOf(q.Column)
		if !ok || kind != value.KindString {
			return ScanConst(false) // missing or non-string column: matches nothing
		}
		return &ScanLike{
			Column:  q.Column,
			Pattern: q.Pattern,
			Match:   likeMatcher(q.Pattern),
			Negate:  q.Negate_,
		}
	case *And:
		if len(q.Children) == 0 {
			return ScanConst(true)
		}
		node := &ScanAnd{Children: make([]ScanNode, len(q.Children))}
		for i, c := range q.Children {
			node.Children[i] = CompileScan(c, kindOf)
		}
		return node
	case *Or:
		if len(q.Children) == 0 {
			return ScanConst(false)
		}
		node := &ScanOr{Children: make([]ScanNode, len(q.Children))}
		for i, c := range q.Children {
			node.Children[i] = CompileScan(c, kindOf)
		}
		return node
	case Const:
		return ScanConst(bool(q))
	}
	panic(fmt.Sprintf("predicate: CompileScan: unknown predicate type %T", p))
}
