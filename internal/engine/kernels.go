package engine

import (
	"fmt"
	"math/bits"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// This file is the vectorized execution path behind Execute. It makes the
// same staging decisions as ExecuteReference — layout routing, zone-map
// skipping, diPs, runtime block pruning, semantic reduction — but sweeps
// whole columns and key sets per step instead of walking rows through
// per-row closures:
//
//   - filter evaluation compiles to one dense bit mask per (alias, table)
//     via predicate.CompileMask, ANDed with the bitset of rows present in the
//     candidate blocks;
//   - join keys live as dictionary-code sets (relation.ColumnDict, owned
//     by the relation.Table and shared by every engine), so semantic
//     reduction costs the rows that match rather than every survivor: see
//     reduceKernel and applyReduce;
//   - zone-map pruning compiles each filter's range evaluator once
//     (predicate.CompileRanges) and sweeps all candidate blocks in one
//     pass.
//
// Every decision is pinned to the scalar path by identity tests asserting
// byte-identical Results across whole workloads.

// vecAlias tracks one table reference in the vectorized path: surviving
// rows live in a dense bitset over the base table, and join-key sets
// derived from them are cached per column, invalidated by a version
// counter that bumps whenever the row set shrinks.
type vecAlias struct {
	alias   string
	table   string
	tbl     *relation.Table
	filter  predicate.Predicate
	set     bitmap.Dense
	setBuf  *denseBuf // pooled backing of set, released after the query
	count   int
	version int
	keys    map[string]*cachedKeys
}

// cachedKeys is a snapshot of one alias's distinct non-null join keys in
// one column, in up to three interchangeable representations built
// lazily: dictionary codes (for coded membership probes), sorted raw ints
// (for zone-interval probes), and boxed values (for secondary-index
// lookups and non-encodable columns). A snapshot is never mutated once
// stored: reduction derives a new one when it shrinks the alias.
type cachedKeys struct {
	version int
	dict    *relation.ColumnDict // nil for non-encodable columns
	coded   bitmap.Dense         // set of dict codes; nil when dict is nil
	n       int                  // number of codes in coded
	all     bool                 // the alias holds every row of the table
	null    bool                 // some row's key is null (dict columns)
	boxed   map[value.Value]struct{}
	ints    []int64       // sorted ascending; int dicts only
	vals    []value.Value // sorted ascending, single kind
}

// keysFor returns a's key snapshot for col, reusing the cached one while
// a's row set is unchanged ("dirty alias" tracking: a clean version means
// the expensive extraction can be skipped entirely). An alias holding
// every row of the table holds every code, so its snapshot needs no walk.
func (e *Engine) keysFor(a *vecAlias, col string) *cachedKeys {
	if ck, ok := a.keys[col]; ok && ck.version == a.version {
		return ck
	}
	ck := &cachedKeys{version: a.version, dict: a.tbl.Dict(col)}
	if ck.dict != nil {
		nc := ck.dict.NumCodes()
		if a.count == a.tbl.NumRows() {
			ck.coded, ck.n, ck.all, ck.null = allCodes(nc), nc, true, ck.dict.HasNull
		} else {
			ck.coded = bitmap.NewDense(nc)
			ck.n, ck.null = collectCodes(a.set, ck.dict.Codes, ck.coded)
		}
	} else {
		// Non-encodable column (float keys, or a column this table does
		// not have): fall back to boxing the values directly.
		ck.boxed = map[value.Value]struct{}{}
		if ci, ok := a.tbl.Schema().ColumnIndex(col); ok {
			a.set.ForEach(func(r int) {
				if v := a.tbl.Value(r, ci); !v.IsNull() {
					ck.boxed[v] = struct{}{}
				}
			})
		}
	}
	a.keys[col] = ck
	return ck
}

// allCodes returns the set holding codes [0, n).
func allCodes(n int) bitmap.Dense {
	d := bitmap.NewDense(n)
	for w := range d {
		d[w] = ^uint64(0)
	}
	if n&63 != 0 {
		d[len(d)-1] = 1<<(uint(n)&63) - 1
	}
	return d
}

// collectCodes sets in coded the code of every row in set, returning the
// number of distinct codes and whether some row is null.
func collectCodes(set bitmap.Dense, codes []int32, coded bitmap.Dense) (n int, null bool) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			if c := codes[w<<6|bits.TrailingZeros64(word)]; c >= 0 {
				coded.Set(int(c))
			} else {
				null = true
			}
		}
	}
	return coded.Count(), null
}

// boxedKeys returns the keys as a value set (the scalar keysOf shape).
func (ck *cachedKeys) boxedKeys() map[value.Value]struct{} {
	if ck.boxed == nil {
		ck.boxed = make(map[value.Value]struct{}, ck.coded.Count())
		ck.coded.ForEach(func(c int) { ck.boxed[ck.dict.Value(int32(c))] = struct{}{} })
	}
	return ck.boxed
}

// intKeys returns the sorted raw int keys; ok is false for non-int key
// sets.
func (ck *cachedKeys) intKeys() (keys []int64, ok bool) {
	if ck.dict == nil || ck.dict.Kind != value.KindInt {
		return nil, false
	}
	if ck.ints == nil && ck.all {
		ck.ints = ck.dict.Ints // every code, already ascending
	}
	if ck.ints == nil {
		ck.ints = make([]int64, 0, ck.n)
		ck.coded.ForEach(func(c int) { ck.ints = append(ck.ints, ck.dict.Ints[c]) })
	}
	return ck.ints, true
}

// valueKeys returns the keys as a sorted boxed slice (the sortedKeys
// shape). Dictionary codes are ranks, so ascending code order is already
// ascending value order.
func (ck *cachedKeys) valueKeys() []value.Value {
	if ck.vals == nil {
		if ck.dict != nil {
			ck.vals = make([]value.Value, 0, ck.coded.Count())
			ck.coded.ForEach(func(c int) { ck.vals = append(ck.vals, ck.dict.Value(int32(c))) })
		} else {
			ck.vals = sortedKeys(ck.boxed)
		}
	}
	return ck.vals
}

// executeKernel stages a query through the vectorized kernels.
func (e *Engine) executeKernel(q *workload.Query) (*Result, error) {
	tables, order, err := e.plan(q)
	if err != nil {
		return nil, err
	}

	vecAliases := map[string]*vecAlias{}
	byTable := map[string][]*vecAlias{}
	for _, alias := range q.Aliases() {
		base := q.BaseTable(alias)
		a := &vecAlias{alias: alias, table: base, tbl: e.ds.Table(base),
			filter: q.FilterOn(alias), keys: map[string]*cachedKeys{}}
		vecAliases[alias] = a
		byTable[base] = append(byTable[base], a)
	}

	// Batch zone-map pruning: compile each filter's range evaluator once,
	// then sweep all of the table's candidate blocks in one pass. A block
	// survives if any alias's filter might match it.
	for _, name := range order {
		ts := tables[name]
		zones := e.store.Zones(name)
		fns := make([]func(predicate.Ranges) predicate.Tri, len(byTable[name]))
		for i, a := range byTable[name] {
			fns[i] = predicate.CompileRanges(a.filter)
		}
		kept := ts.candidates[:0]
		for _, id := range ts.candidates {
			rs := zones[id].Ranges()
			for _, fn := range fns {
				if fn(rs) != predicate.TriFalse {
					kept = append(kept, id)
					break
				}
			}
		}
		ts.candidates = kept
		ts.afterZoneMap = len(kept)
	}

	// diPs: plan-time pruning from zone-map range sets (§3.1.1).
	if e.opts.DiPs {
		e.applyDiPs(q, tables)
	}
	for _, ts := range tables {
		ts.afterDiPs = len(ts.candidates)
	}

	// Compile compressed-domain scans (one per table; literals are
	// translated into each table's encoding once per query), then queue
	// readahead for the admitted candidate blocks. Runtime pruning below
	// may still shrink the sets — prefetching a superset is harmless, it
	// only warms the cache.
	scans := map[string]block.CompressedScan{}
	if !e.opts.DecodeScan {
		if cs, ok := e.store.(block.CompressedScanner); ok {
			for _, name := range order {
				filters := make([]predicate.Predicate, len(byTable[name]))
				for i, a := range byTable[name] {
					filters[i] = a.filter
				}
				if scan := cs.CompileScan(name, filters); scan != nil {
					scans[name] = scan
				}
			}
		}
	}
	if !e.opts.NoReadahead {
		for _, name := range order {
			ts := tables[name]
			if len(ts.candidates) == 0 {
				continue
			}
			if scan := scans[name]; scan != nil {
				scan.Prefetch(ts.candidates)
			} else if pf, ok := e.store.(block.Prefetcher); ok {
				pf.Prefetch(name, ts.candidates)
			}
		}
	}

	reducers := 0
	for _, name := range matOrderOf(tables, order) {
		ts := tables[name]
		if e.opts.SemiJoinReduction || e.opts.SecondaryIndexes[name] != "" {
			reducers += e.blockPruneKernel(q, ts, vecAliases, tables)
		}
		if err := e.scanKernel(ts, byTable[name], scans[name]); err != nil {
			return nil, err
		}
	}

	joinProbes, truncated := e.reduceKernel(q, vecAliases)
	if truncated {
		e.counters.truncated.Add(1)
	}

	surviving := make(map[string]int, len(vecAliases))
	for alias, a := range vecAliases {
		surviving[alias] = a.count
	}
	// The aggregate folds consume the alias survivor masks, so the pooled
	// masks are released only after folding.
	aggs, err := e.foldAggregatesKernel(q, vecAliases, tables)
	for _, a := range vecAliases {
		if a.setBuf != nil {
			putDense(a.setBuf)
		}
	}
	if err != nil {
		return nil, err
	}
	res := e.assemble(q, order, tables, surviving, joinProbes, reducers)
	res.Aggregates = aggs
	return res, nil
}

// scanKernel meters the reads of the table's candidate blocks and computes
// each alias's filtered row set as one dense bitset: the filter's
// full-table mask ANDed with the bitset of rows present in the candidate
// blocks (blocks hold arbitrary row subsets, so the two are independent).
//
// With a compiled compressed scan, candidate blocks are read in encoded
// form and every filter is evaluated directly on the encoded pages of the
// blocks read, never over the rest of the table (ScanBlock ORs block-local
// survivors into the alias's dense mask and meters the read identically to
// ReadBlock). Either way the alias masks come out bit-identical.
func (e *Engine) scanKernel(ts *tableState, aliases []*vecAlias, scan block.CompressedScan) error {
	tbl := e.ds.Table(ts.table)
	if tbl == nil {
		return fmt.Errorf("engine: dataset missing table %q", ts.table)
	}
	n := tbl.NumRows()
	if scan != nil {
		scanMasks := make([][]uint64, len(aliases))
		for i, a := range aliases {
			a.setBuf = grabDense(n)
			a.set = a.setBuf.dense()
			scanMasks[i] = a.set
		}
		for _, id := range ts.candidates {
			rows, err := scan.ScanBlock(id, scanMasks)
			if err != nil {
				return err
			}
			ts.blocksRead++
			ts.rowsRead += rows
		}
		for _, a := range aliases {
			a.count = a.set.Count()
		}
		ts.read = true
		return nil
	}
	inBuf := grabDense(n)
	defer putDense(inBuf)
	inBlocks := inBuf.dense()
	for _, id := range ts.candidates {
		b, err := e.store.ReadBlock(ts.table, id)
		if err != nil {
			return err
		}
		ts.blocksRead++
		ts.rowsRead += b.NumRows()
		for _, r := range b.Rows {
			inBlocks.Set(int(r))
		}
	}
	for _, a := range aliases {
		a.setBuf = grabDense(n)
		a.set = a.setBuf.dense()
		predicate.CompileMask(a.filter, tbl, a.set)
		a.set.And(inBlocks)
		a.count = a.set.Count()
	}
	ts.read = true
	return nil
}

// blockPruneKernel is runtimeBlockPrune over vectorized alias state: the
// materialized side's key set comes from the per-column cache, and int
// keys probe zone intervals through a primitive binary search instead of
// boxed comparisons.
func (e *Engine) blockPruneKernel(q *workload.Query, ts *tableState,
	aliases map[string]*vecAlias, tables map[string]*tableState) int {

	reducers := 0
	for _, j := range q.Joins {
		var otherAlias, myCol, otherCol string
		rByL, lByR := prunableDirections(j.Type)
		switch {
		case aliasOnTable(q, j.Right, ts.table) && rByL:
			otherAlias, myCol, otherCol = j.Left, j.RightColumn, j.LeftColumn
		case aliasOnTable(q, j.Left, ts.table) && lByR:
			otherAlias, myCol, otherCol = j.Right, j.LeftColumn, j.RightColumn
		default:
			continue
		}
		other := aliases[otherAlias]
		otherTS := tables[other.table]
		if otherTS == nil || !otherTS.read || other.table == ts.table {
			continue
		}
		if !tableHasColumn(other.tbl, otherCol) {
			// No keys to reduce with (see runtimeBlockPrune).
			continue
		}
		ck := e.keysFor(other, otherCol)
		if e.opts.SecondaryIndexes[ts.table] == myCol {
			if e.secondaryIndexPrune(ts, myCol, ck.boxedKeys()) {
				reducers++
			}
			continue
		}
		if !e.opts.SemiJoinReduction {
			// SI configured for a different column only: no reducer is
			// built, so no setup time is charged.
			continue
		}
		reducers++
		zones := e.store.Zones(ts.table)
		ints, isInt := ck.intKeys()
		kept := ts.candidates[:0]
		for _, id := range ts.candidates {
			iv := zones[id].Column(myCol)
			hit, handled := false, false
			if isInt {
				hit, handled = anyIntKeyInInterval(ints, iv)
			}
			if !handled {
				hit = anyKeyInInterval(ck.valueKeys(), iv)
			}
			if hit {
				kept = append(kept, id)
			}
		}
		ts.candidates = kept
	}
	return reducers
}

// dirMemo records, per join direction, the (source, target) versions as of
// the last time the target was reduced by the source's keys. Reduction is
// idempotent, so while both versions are unchanged re-running the scan is
// provably a no-op and is skipped; the probe charges still accrue, keeping
// the cost model identical to the reference path.
//
// It also caches the direction's keep set — the source's keys as target
// codes — and the number of target table rows holding those codes. The
// set stays valid while the source is at version keepVer and, for a set
// restricted to the target snapshot's codes, while within is current.
type dirMemo struct {
	srcVer, tgtVer int
	valid          bool

	hasKeep bool
	keepVer int
	within  *cachedKeys
	keep    bitmap.Dense
	matches int
}

// postingCost is the price of visiting one row through a postings list,
// in units of one survivor visited by a walk: a posting visit is a random
// probe into the survivor bitmap while the walk streams it. A postings
// route is taken when it promises at most a quarter of the walk's visits,
// and a probe gives up after a quarter of the walk it replaces. On
// BenchmarkSemiJoinReduce (TPC-H Q9/Q17/Q18, SF 0.02, 2 vCPU, go1.24; sum
// of the per-template best of three runs) costs 2 and 4 tied at 5.0 and
// 5.1 ms per query, while 1 took 5.7 and 8 took 5.5.
const postingCost = 4

// reduceKernel is the vectorized semantic-reduction fixpoint: identical
// pass structure and probe accounting to semanticReduce, with each step
// costing the rows that match (see applyReduce) and skipped when the
// direction's inputs are unchanged. truncated reports that the pass cap
// stopped the fixpoint while the last pass was still shrinking a set.
func (e *Engine) reduceKernel(q *workload.Query, aliases map[string]*vecAlias) (probes int, truncated bool) {
	// memo[2i] covers reducing join i's left side by the right's keys;
	// memo[2i+1] the opposite direction.
	memo := make([]dirMemo, 2*len(q.Joins))
	for pass := 0; pass < e.opts.MaxReductionPasses; pass++ {
		changed := false
		for i, j := range q.Joins {
			l, r := aliases[j.Left], aliases[j.Right]
			if !tableHasColumn(l.tbl, j.LeftColumn) || !tableHasColumn(r.tbl, j.RightColumn) {
				// A missing join column yields no key set; reducing by it
				// would wrongly drop every row. Skip the edge (see
				// semanticReduce).
				continue
			}
			lByR, rByL := &memo[2*i], &memo[2*i+1]
			// Each direction reduces by the source's keys as of the start
			// of this edge's step, like the scalar path: version lv or rv.
			// For an inner or semi join the second direction reads the
			// source after the first may have shrunk it, by exactly the
			// keys absent from the target, so the target keeps the same
			// rows either way.
			lv, rv := l.version, r.version
			switch j.Type {
			case workload.InnerJoin, workload.SemiJoin:
				probes += l.count + r.count
				if e.applyReduce(l, j.LeftColumn, r, j.RightColumn, rv, false, lByR) {
					changed = true
				}
				if e.applyReduce(r, j.RightColumn, l, j.LeftColumn, lv, false, rByL) {
					changed = true
				}
			case workload.LeftOuterJoin:
				probes += r.count
				if e.applyReduce(r, j.RightColumn, l, j.LeftColumn, lv, false, rByL) {
					changed = true
				}
			case workload.RightOuterJoin:
				probes += l.count
				if e.applyReduce(l, j.LeftColumn, r, j.RightColumn, rv, false, lByR) {
					changed = true
				}
			case workload.LeftAntiSemiJoin:
				probes += l.count
				if e.applyReduce(l, j.LeftColumn, r, j.RightColumn, rv, true, lByR) {
					changed = true
				}
			case workload.RightAntiSemiJoin:
				probes += r.count
				if e.applyReduce(r, j.RightColumn, l, j.LeftColumn, lv, true, rByL) {
					changed = true
				}
			case workload.FullOuterJoin:
				// Both sides preserved: no reduction, and probes accrue
				// once (see semanticReduce).
				if pass == 0 {
					probes += l.count + r.count
				}
			}
		}
		if !changed {
			return probes, false
		}
	}
	return probes, true
}

// applyReduce keeps only tgt rows whose tgtCol key membership in the
// source's srcCol keys matches (anti keeps non-members), mirroring the
// scalar reduceTo. srcVer is the source alias's version when the edge's
// step began; the step is skipped when the memo proves both sides
// unchanged since the direction last ran. Reports whether the row set
// shrank.
func (e *Engine) applyReduce(tgt *vecAlias, tgtCol string, src *vecAlias, srcCol string,
	srcVer int, anti bool, m *dirMemo) bool {

	if m.valid && m.srcVer == srcVer && m.tgtVer == tgt.version {
		return false
	}
	m.srcVer, m.valid = srcVer, true
	before := tgt.count
	td, sd := tgt.tbl.Dict(tgtCol), src.tbl.Dict(srcCol)
	if td != nil && sd != nil {
		e.reduceCoded(tgt, tgtCol, td, src, srcCol, anti, m)
	} else if reduceBoxed(tgt.set, tgt.tbl, tgtCol, e.keysFor(src, srcCol).boxedKeys(), anti) {
		tgt.count = tgt.set.Count()
	}
	removed := tgt.count != before
	if removed {
		tgt.version++
	}
	m.tgtVer = tgt.version
	return removed
}

// reduceCoded is applyReduce on dictionary-encoded columns. It costs the
// rows that match, not the survivors:
//
//   - the source's keys become a keep set of target codes once per
//     direction and source version, by the cheapest route: the table-owned
//     set of target codes with a match when the source holds every row;
//     probing the source's postings for a surviving row per target code,
//     within a budget, when the source has no key snapshot; otherwise
//     translating the smaller of the two snapshots. The postings count the
//     target rows holding the kept codes;
//   - the target's current key snapshot tk, when there is one, splits into
//     kept and dropped codes: an empty side proves the step a no-op or
//     empties the set without touching a row, and the postings of the
//     smaller side give the rows to keep or to clear;
//   - when no postings route is cheap, one branch-free walk probes keep by
//     each survivor's code;
//   - the target's new snapshot is derived by set algebra (tk ∩ keep, or
//     tk \ keep for anti), or collected by that same walk, so it is never
//     walked for again.
func (e *Engine) reduceCoded(tgt *vecAlias, tgtCol string, td *relation.ColumnDict, src *vecAlias, srcCol string,
	anti bool, m *dirMemo) {

	post := tgt.tbl.Postings(tgtCol)
	tk := tgt.keys[tgtCol]
	if tk != nil && tk.version != tgt.version {
		tk = nil
	}
	if tk == nil && (tgt.count == tgt.tbl.NumRows() ||
		tgt.count < src.count && !hasKeys(src, srcCol) && src.count < src.tbl.NumRows()) {
		// Free for a target holding every row. Otherwise the smaller side
		// pays the walk: with the target's codes in hand the larger source
		// is probed rather than walked.
		tk = e.keysFor(tgt, tgtCol)
	}
	if !m.hasKeep || m.keepVer != src.version || (m.within != nil && m.within != tk) {
		m.hasKeep, m.keepVer = true, src.version
		m.keep, m.matches, m.within = e.keepSet(tgt, tgtCol, td, tk, src, srcCol, post)
	}
	keep, limit := m.keep, tgt.count/postingCost
	if tk == nil {
		all := codeSel{keep, keep, 0}
		switch {
		case anti && m.matches == 0, !anti && !td.HasNull && m.matches == len(post.Rows):
			// No row holds a kept code, or every row does: nothing to drop.
		case m.matches > limit:
			walkReduce(tgt, tgtCol, td, keep, anti)
		case anti:
			tgt.count -= clearPostings(tgt.set, all, post)
		default:
			tgt.count = keepPostings(tgt, all, post, nil)
		}
		return
	}

	// Split tk into the codes whose rows stay and those whose rows go;
	// rows with a null key stay exactly when the step is anti.
	kept, dropped := codeSel{tk.coded, keep, 0}, codeSel{tk.coded, keep, ^uint64(0)}
	var keepNulls, dropNulls []int32
	if anti {
		kept, dropped = dropped, kept
		if tk.null {
			keepNulls = post.Nulls
		}
	} else if tk.null {
		dropNulls = post.Nulls
	}
	switch {
	case dropped.empty() && dropNulls == nil:
		return
	case kept.empty() && keepNulls == nil:
		clear(tgt.set)
		tgt.count = 0
	default:
		keepRows := kept.rows(post, limit) + len(keepNulls)
		dropRows := dropped.rows(post, limit) + len(dropNulls)
		switch {
		case min(keepRows, dropRows) > limit:
			walkReduce(tgt, tgtCol, td, keep, anti)
			return
		case dropRows < keepRows:
			tgt.count -= clearPostings(tgt.set, dropped, post) + clearRows(tgt.set, dropNulls)
		default:
			tgt.count = keepPostings(tgt, kept, post, keepNulls)
		}
	}
	nk := &cachedKeys{version: tgt.version + 1, dict: td, coded: bitmap.NewDense(td.NumCodes()),
		null: tk.null && anti}
	for w := range nk.coded {
		nk.coded[w] = kept.word(w)
	}
	nk.n = nk.coded.Count()
	tgt.keys[tgtCol] = nk
}

// codeSel is the code set a ∩ b, or a \ b when inv is all ones, read word
// by word without materializing it.
type codeSel struct {
	a, b bitmap.Dense
	inv  uint64
}

func (s codeSel) word(w int) uint64 { return s.a[w] & (s.b[w] ^ s.inv) }

func (s codeSel) empty() bool {
	for w := range s.a {
		if s.word(w) != 0 {
			return false
		}
	}
	return true
}

// rows counts the rows holding the selected codes, stopping once the
// count exceeds limit.
func (s codeSel) rows(post *relation.Postings, limit int) int {
	n := 0
	for w := range s.a {
		for word := s.word(w); word != 0 && n <= limit; word &= word - 1 {
			n += post.Count(int32(w<<6 | bits.TrailingZeros64(word)))
		}
	}
	return n
}

// hasKeys reports whether a has a current key snapshot for col.
func hasKeys(a *vecAlias, col string) bool {
	ck := a.keys[col]
	return ck != nil && ck.version == a.version
}

// keepSet returns the source's srcCol keys as a set of target codes and
// the number of target rows holding them (see reduceCoded for the routes).
// within is tk when the set is restricted to tk's codes.
func (e *Engine) keepSet(tgt *vecAlias, tgtCol string, td *relation.ColumnDict, tk *cachedKeys,
	src *vecAlias, srcCol string, post *relation.Postings) (keep bitmap.Dense, matches int, within *cachedKeys) {

	if src.count == src.tbl.NumRows() {
		tr := tgt.tbl.Translation(tgtCol, src.tbl, srcCol)
		return tr.Matched, tr.MatchedRows, nil
	}
	if tk != nil && !hasKeys(src, srcCol) {
		// A probe stops at each code's first surviving source row, so it
		// usually costs about one visit per code; the budget caps the loss
		// when it does not at a quarter of the source walk it replaces.
		toSrc := tgt.tbl.Translation(tgtCol, src.tbl, srcCol).Codes
		if keep, matches, ok := keepByProbe(tk.coded, src, srcCol, toSrc, post, src.count/postingCost); ok {
			return keep, matches, tk
		}
	}
	sk := e.keysFor(src, srcCol)
	if tk != nil && tk.n < sk.n {
		keep, matches = keepWithin(tk.coded, sk.coded, tgt.tbl.Translation(tgtCol, src.tbl, srcCol).Codes, post)
		return keep, matches, tk
	}
	keep, matches = translateKeys(sk.coded, src.tbl.Translation(srcCol, tgt.tbl, tgtCol).Codes, post, td.NumCodes())
	return keep, matches, nil
}

// translateKeys maps the source code set through xl (source code → target
// code) into a keep set over the target's nc codes, counting the target
// rows that hold the kept codes.
func translateKeys(srcCodes bitmap.Dense, xl []int32, post *relation.Postings, nc int) (keep bitmap.Dense, matches int) {
	keep = bitmap.NewDense(nc)
	for w, word := range srcCodes {
		for ; word != 0; word &= word - 1 {
			if tc := xl[w<<6|bits.TrailingZeros64(word)]; tc >= 0 {
				keep.Set(int(tc))
				matches += post.Count(tc)
			}
		}
	}
	return keep, matches
}

// keepWithin is translateKeys driven from the target side: it keeps the
// codes of tgtCodes whose value, through xl (target code → source code),
// is in srcCodes. Cheaper when the target snapshot has fewer codes, and
// exact for it, since the target's rows hold no other codes.
func keepWithin(tgtCodes, srcCodes bitmap.Dense, xl []int32, post *relation.Postings) (keep bitmap.Dense, matches int) {
	keep = make(bitmap.Dense, len(tgtCodes))
	for w, word := range tgtCodes {
		for ; word != 0; word &= word - 1 {
			tc := w<<6 | bits.TrailingZeros64(word)
			if sc := xl[tc]; sc >= 0 && srcCodes.Get(int(sc)) {
				keep.Set(tc)
				matches += post.Count(int32(tc))
			}
		}
	}
	return keep, matches
}

// keepByProbe is keepWithin without a source snapshot: a target code is
// kept when one of the source rows holding its translation survives. It
// gives up (ok false) once it has visited more than budget source rows.
func keepByProbe(codes bitmap.Dense, src *vecAlias, srcCol string, xl []int32, post *relation.Postings,
	budget int) (keep bitmap.Dense, matches int, ok bool) {

	spost := src.tbl.Postings(srcCol)
	keep = make(bitmap.Dense, len(codes))
	for w, word := range codes {
		for ; word != 0; word &= word - 1 {
			tc := w<<6 | bits.TrailingZeros64(word)
			sc := xl[tc]
			if sc < 0 {
				continue
			}
			for _, r := range spost.Of(sc) {
				budget--
				if src.set.Get(int(r)) {
					keep.Set(tc)
					matches += post.Count(int32(tc))
					break
				}
			}
			if budget < 0 {
				return nil, 0, false
			}
		}
	}
	return keep, matches, true
}

// walkReduce reduces tgt's rows by one reduceWalk and stores the key
// snapshot the walk collects on the way.
func walkReduce(tgt *vecAlias, col string, td *relation.ColumnDict, keep bitmap.Dense, anti bool) {
	nk := &cachedKeys{dict: td, coded: bitmap.NewDense(td.NumCodes())}
	dropped, null := reduceWalk(tgt.set, td.Codes, keep, anti, nk.coded)
	tgt.count -= dropped
	nk.version, nk.n, nk.null = tgt.version, nk.coded.Count(), null
	if dropped > 0 {
		nk.version++
	}
	tgt.keys[col] = nk
}

// reduceWalk drops the rows of set whose membership in keep — probed by
// the row's own code, null rows (code -1) never members — equals anti, in
// one pass without branches on the data. It also sets in coded the code
// of every row it keeps, and reports how many rows it dropped and whether
// it kept a null one. keep must span at least one word; a column without
// codes matches no row, so reduceCoded never walks it.
func reduceWalk(set bitmap.Dense, codes []int32, keep bitmap.Dense, anti bool,
	coded bitmap.Dense) (dropped int, null bool) {

	flip := uint64(1) // non-anti drops non-members
	if anti {
		flip = 0
	}
	var nulls uint64
	for w, word := range set {
		var drop uint64
		for rest := word; rest != 0; rest &= rest - 1 {
			tz := bits.TrailingZeros64(rest)
			c := codes[w<<6|tz]
			isNull := uint64(c >> 31) // all ones for a null row
			i := c &^ (c >> 31)       // a null row probes code 0, masked off
			member := (keep[i>>6] >> (uint(i) & 63)) & 1 &^ isNull
			gone := member ^ flip
			drop |= (1 << tz) & -gone
			coded[i>>6] |= ((gone ^ 1) &^ isNull) << (uint(i) & 63)
			nulls |= (gone ^ 1) & isNull
		}
		set[w] = word &^ drop
		dropped += bits.OnesCount64(drop)
	}
	return dropped, nulls != 0
}

// keepPostings replaces a's row set with its rows that hold a selected
// code, or are among the extra rows, built from the postings into a fresh
// pooled bitmap; it returns how many there are.
func keepPostings(a *vecAlias, codes codeSel, post *relation.Postings, extra []int32) int {
	next := grabDense(a.tbl.NumRows())
	nd := next.dense()
	n := copyRows(a.set, nd, extra)
	for w := range codes.a {
		for word := codes.word(w); word != 0; word &= word - 1 {
			n += copyRows(a.set, nd, post.Of(int32(w<<6|bits.TrailingZeros64(word))))
		}
	}
	putDense(a.setBuf)
	a.setBuf, a.set = next, nd
	return n
}

// copyRows sets in dst the given rows that are in src and returns how many
// there were.
func copyRows(src, dst bitmap.Dense, rows []int32) int {
	n := 0
	for _, r := range rows {
		if src.Get(int(r)) {
			dst.Set(int(r))
			n++
		}
	}
	return n
}

// clearPostings clears from set the rows that hold a selected code and
// returns how many it cleared.
func clearPostings(set bitmap.Dense, codes codeSel, post *relation.Postings) int {
	n := 0
	for w := range codes.a {
		for word := codes.word(w); word != 0; word &= word - 1 {
			n += clearRows(set, post.Of(int32(w<<6|bits.TrailingZeros64(word))))
		}
	}
	return n
}

// clearRows clears the given rows from set and returns how many were set.
func clearRows(set bitmap.Dense, rows []int32) int {
	n := 0
	for _, r := range rows {
		if set.Get(int(r)) {
			set.Clear(int(r))
			n++
		}
	}
	return n
}

// reduceBoxed is the boxed fallback for non-encodable columns, with the
// exact membership semantics of the scalar reduceTo.
func reduceBoxed(set bitmap.Dense, tbl *relation.Table, col string,
	keys map[value.Value]struct{}, anti bool) bool {

	ci, ok := tbl.Schema().ColumnIndex(col)
	if !ok {
		return false
	}
	removed := false
	for w := range set {
		word := set[w]
		for word != 0 {
			t := word & -word
			r := w<<6 | bits.TrailingZeros64(word)
			word ^= t
			v := tbl.Value(r, ci)
			_, member := keys[v]
			if v.IsNull() {
				member = false
			}
			if member == anti {
				set[w] &^= t
				removed = true
			}
		}
	}
	return removed
}
