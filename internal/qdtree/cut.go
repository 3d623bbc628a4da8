// Package qdtree implements the qd-tree (query-data tree) of Yang et al.
// [57], extended with join-induced cuts as required by MTO (§2.1, §4.1.2 of
// the paper). A qd-tree is a binary decision tree: each inner node holds a
// cut; records satisfying the cut go to the left ("yes") child, others to
// the right. Leaves correspond to data blocks. The same tree routes records
// offline (block assignment) and queries online (block skipping).
package qdtree

import (
	"mto/internal/induce"
	"mto/internal/joingraph"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/workload"
)

// RouteContext carries one query's view of the table being routed. A query
// referencing the table through several aliases (self join) is routed once
// per alias and the block sets are unioned.
type RouteContext struct {
	Query  *workload.Query
	Alias  string
	Filter predicate.Predicate // the query's filter on this alias
}

// Cut is a node split criterion. Two implementations exist: SimpleCut (a
// filter predicate over the table) and InducedCut (a join-induced predicate,
// §4.1).
type Cut interface {
	// CompileRecord returns a fast matcher deciding, for each row of t,
	// whether the record routes to the left ("yes") child.
	CompileRecord(t *relation.Table) func(row int) bool
	// Route decides which children a query must visit. region is the
	// node's accumulated per-column constraint region.
	Route(rc *RouteContext, region predicate.Ranges) (left, right bool)
	// LeftRanges / RightRanges refine the node region for each child.
	LeftRanges(region predicate.Ranges) predicate.Ranges
	RightRanges(region predicate.Ranges) predicate.Ranges
	// JoinKeys identifies the joins the cut's induction path traverses
	// (empty for simple cuts); cardinality adjustment de-duplicates on
	// these (§4.2).
	JoinKeys() []string
	// JoinRates gives, parallel to JoinKeys, the effective sampling rate
	// of each hop's scanned table, or nil to use the build's dataset-wide
	// CA rate for every hop.
	JoinRates() []float64
	// IsInduced reports whether this is a join-induced cut.
	IsInduced() bool
	// InductionDepth is the length of the induction path (0 for simple).
	InductionDepth() int
	// MemBytes estimates the cut's in-memory footprint.
	MemBytes() int
	String() string
}

// SimpleCut is a cut over the table's own columns.
type SimpleCut struct {
	Pred predicate.Predicate
}

// NewSimpleCut wraps a predicate as a cut.
func NewSimpleCut(p predicate.Predicate) *SimpleCut { return &SimpleCut{Pred: p} }

// CompileRecord implements Cut.
func (c *SimpleCut) CompileRecord(t *relation.Table) func(row int) bool {
	return predicate.Compile(c.Pred, t)
}

// CompileMask is the bulk membership fast path (see maskCompiler): it fills
// mask with the predicate's matches in one vectorized pass instead of a
// closure call per row.
func (c *SimpleCut) CompileMask(t *relation.Table, mask []uint64) {
	predicate.CompileMask(c.Pred, t, mask)
}

// Route implements Cut: a child is visited unless the query's filter is
// provably unsatisfiable within the child's region.
func (c *SimpleCut) Route(rc *RouteContext, region predicate.Ranges) (bool, bool) {
	l := c.LeftRanges(region)
	r := c.RightRanges(region)
	left := !l.HasEmpty() && rc.Filter.EvalRanges(l) != predicate.TriFalse
	right := !r.HasEmpty() && rc.Filter.EvalRanges(r) != predicate.TriFalse
	return left, right
}

// PrepareRoute binds the node region once and returns a router over it, so
// candidate scoring can route every query against the same refined child
// regions instead of re-deriving them per query. The returned router gives
// exactly Route's answers.
func (c *SimpleCut) PrepareRoute(region predicate.Ranges) func(rc *RouteContext) (left, right bool) {
	l, r := c.LeftRanges(region), c.RightRanges(region)
	lEmpty, rEmpty := l.HasEmpty(), r.HasEmpty()
	return func(rc *RouteContext) (bool, bool) {
		left := !lEmpty && rc.Filter.EvalRanges(l) != predicate.TriFalse
		right := !rEmpty && rc.Filter.EvalRanges(r) != predicate.TriFalse
		return left, right
	}
}

// LeftRanges implements Cut.
func (c *SimpleCut) LeftRanges(region predicate.Ranges) predicate.Ranges {
	return region.Refine(predicate.RangesOf(c.Pred))
}

// RightRanges implements Cut.
func (c *SimpleCut) RightRanges(region predicate.Ranges) predicate.Ranges {
	return region.Refine(predicate.RangesOf(c.Pred.Negate()))
}

// JoinKeys implements Cut.
func (c *SimpleCut) JoinKeys() []string { return nil }

// JoinRates implements Cut.
func (c *SimpleCut) JoinRates() []float64 { return nil }

// IsInduced implements Cut.
func (c *SimpleCut) IsInduced() bool { return false }

// InductionDepth implements Cut.
func (c *SimpleCut) InductionDepth() int { return 0 }

// MemBytes implements Cut (a rough constant for the predicate structure).
func (c *SimpleCut) MemBytes() int { return 48 + len(c.Pred.String()) }

// String implements Cut.
func (c *SimpleCut) String() string { return c.Pred.String() }

// InducedCut wraps a join-induced predicate. Record routing uses the
// literal form; query routing uses the logical form: subsumption between
// the query's join graph and the cut's induction path (§4.1.2).
type InducedCut struct {
	Ind *induce.Predicate
}

// NewInducedCut wraps an induced predicate as a cut.
func NewInducedCut(ip *induce.Predicate) *InducedCut { return &InducedCut{Ind: ip} }

// CompileRecord implements Cut.
func (c *InducedCut) CompileRecord(t *relation.Table) func(row int) bool {
	return c.Ind.CompileRow(t)
}

// Route implements Cut per §4.1.2: if the query's join graph does not share
// the cut's induction path, route to both children. Otherwise route left iff
// the query's filters on the source table intersect the source cut, and
// independently right iff they intersect its negation.
func (c *InducedCut) Route(rc *RouteContext, _ predicate.Ranges) (bool, bool) {
	sources, ok := joingraph.MatchPath(rc.Query, c.Ind.Path)
	if !ok {
		return true, true
	}
	neg := c.Ind.SourceCut.Negate()
	left, right := false, false
	for _, srcAlias := range sources {
		f := rc.Query.FilterOn(srcAlias)
		if predicatesIntersect(f, c.Ind.SourceCut) {
			left = true
		}
		if predicatesIntersect(f, neg) {
			right = true
		}
		if left && right {
			break
		}
	}
	return left, right
}

// predicatesIntersect conservatively decides whether two predicates over
// the same table can hold simultaneously: it is false only when provably
// disjoint (checked in both directions through range extraction).
func predicatesIntersect(a, b predicate.Predicate) bool {
	ra, rb := predicate.RangesOf(a), predicate.RangesOf(b)
	if ra.Refine(rb).HasEmpty() {
		return false
	}
	return a.EvalRanges(rb) != predicate.TriFalse &&
		b.EvalRanges(ra) != predicate.TriFalse
}

// LeftRanges implements Cut: induced cuts do not constrain the target
// table's own columns (they constrain join membership), so the region is
// unchanged.
func (c *InducedCut) LeftRanges(region predicate.Ranges) predicate.Ranges { return region }

// RightRanges implements Cut.
func (c *InducedCut) RightRanges(region predicate.Ranges) predicate.Ranges { return region }

// JoinKeys implements Cut.
func (c *InducedCut) JoinKeys() []string { return c.Ind.Path.JoinKeys() }

// JoinRates implements Cut.
func (c *InducedCut) JoinRates() []float64 { return c.Ind.HopRates }

// IsInduced implements Cut.
func (c *InducedCut) IsInduced() bool { return true }

// InductionDepth implements Cut.
func (c *InducedCut) InductionDepth() int { return c.Ind.Depth() }

// MemBytes implements Cut: logical form plus the literal roaring bitmaps.
func (c *InducedCut) MemBytes() int { return 64 + c.Ind.MemBytes() }

// String implements Cut.
func (c *InducedCut) String() string { return c.Ind.String() }
