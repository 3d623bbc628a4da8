package relation

import (
	"sync"

	"mto/internal/bitmap"
)

// keyCache holds the join-key state derived from a table's rows: column
// dictionaries, postings and code translations. It depends on the data
// alone — never on a layout, an engine or a query — so the Table owns it
// and every engine, layout generation and serving tenant over the table
// shares one build per column. Entries describe the table at one row
// count and are dropped as soon as the table has grown; they are
// immutable once stored, so holders may keep reading them after the lock
// is released.
type keyCache struct {
	mu       sync.Mutex
	rows     int // row count the entries below describe
	dicts    map[string]*ColumnDict
	postings map[string]*Postings
	xlate    map[xlateKey]xlateEntry
	builds   int
}

type xlateKey struct {
	col   string
	to    *Table
	toCol string
}

// xlateEntry is one cached translation and the target dictionary it
// indexes: when the target table grows its dictionary is rebuilt, and the
// stale translation is replaced on the next lookup.
type xlateEntry struct {
	to *ColumnDict
	tr *Translation
}

// lockedCache locks t's key cache, first dropping every entry built for an
// older row count.
func (t *Table) lockedCache() *keyCache {
	kc := &t.keys
	kc.mu.Lock()
	if kc.dicts == nil || kc.rows != t.rows {
		kc.rows = t.rows
		kc.dicts = map[string]*ColumnDict{}
		kc.postings = map[string]*Postings{}
		kc.xlate = map[xlateKey]xlateEntry{}
	}
	return kc
}

// Dict returns the dictionary encoding of col (see BuildColumnDict),
// built on first use and shared until the table grows. It is nil for a
// column that cannot be encoded (float or missing); the failure is cached
// too, so such columns are not retried.
func (t *Table) Dict(col string) *ColumnDict {
	kc := t.lockedCache()
	defer kc.mu.Unlock()
	return t.dictLocked(kc, col)
}

func (t *Table) dictLocked(kc *keyCache, col string) *ColumnDict {
	if d, ok := kc.dicts[col]; ok {
		return d
	}
	d, err := BuildColumnDict(t, col)
	if err != nil {
		d = nil
	} else {
		kc.builds++
	}
	kc.dicts[col] = d
	return d
}

// Postings returns the postings index of col: for every dictionary code,
// the ascending ids of the rows holding it. Like Dict it is built once per
// row count and is nil for columns that cannot be encoded.
func (t *Table) Postings(col string) *Postings {
	kc := t.lockedCache()
	defer kc.mu.Unlock()
	if p, ok := kc.postings[col]; ok {
		return p
	}
	var p *Postings
	if d := t.dictLocked(kc, col); d != nil {
		p = buildPostings(d)
		kc.builds++
	}
	kc.postings[col] = p
	return p
}

// Translation maps the codes of one column's dictionary into another
// column's (see TranslateCodes), with the codes that have a match there.
type Translation struct {
	// Codes maps each from code to the equal value's to code, or -1.
	Codes []int32
	// Matched is the set of from codes whose value the to column holds,
	// and MatchedRows counts the from table's rows holding them: the keep
	// set and match count of reducing the from column by every key of
	// the to column.
	Matched     bitmap.Dense
	MatchedRows int
}

// Translation returns the translation of col's codes into to.toCol's,
// built on first use and shared until either table grows. It is nil when
// either column cannot be encoded.
func (t *Table) Translation(col string, to *Table, toCol string) *Translation {
	// Resolve to's dictionary before taking t's lock, so two tables
	// translating into each other never wait on each other's lock.
	toDict := to.Dict(toCol)
	kc := t.lockedCache()
	defer kc.mu.Unlock()
	from := t.dictLocked(kc, col)
	if from == nil || toDict == nil {
		return nil
	}
	key := xlateKey{col: col, to: to, toCol: toCol}
	if x, ok := kc.xlate[key]; ok && x.to == toDict {
		return x.tr
	}
	tr := &Translation{Codes: TranslateCodes(from, toDict), Matched: bitmap.NewDense(from.NumCodes())}
	for c, tc := range tr.Codes {
		if tc >= 0 {
			tr.Matched.Set(c)
		}
	}
	for _, c := range from.Codes {
		if c >= 0 && tr.Codes[c] >= 0 {
			tr.MatchedRows++
		}
	}
	kc.xlate[key] = xlateEntry{to: toDict, tr: tr}
	kc.builds++
	return tr
}

// KeyCacheBuilds reports how many dictionaries, postings indexes and
// translations the table has built so far: the number stays put while
// further engines, layouts and queries reuse the cached state.
func (t *Table) KeyCacheBuilds() int {
	kc := &t.keys
	kc.mu.Lock()
	defer kc.mu.Unlock()
	return kc.builds
}

// Postings maps each dictionary code of one column to the ascending ids of
// the rows holding it, in compressed-sparse-row form: code c's rows are
// Rows[Offsets[c]:Offsets[c+1]]. Null rows appear under no code; Nulls
// lists them, ascending.
type Postings struct {
	Offsets []int32
	Rows    []int32
	Nulls   []int32
}

// buildPostings inverts d.Codes with one counting sort; rows are visited
// in ascending order, so each code's run comes out ascending.
func buildPostings(d *ColumnDict) *Postings {
	p := &Postings{Offsets: make([]int32, d.NumCodes()+1)}
	for _, c := range d.Codes {
		if c >= 0 {
			p.Offsets[c+1]++
		}
	}
	for c := 1; c < len(p.Offsets); c++ {
		p.Offsets[c] += p.Offsets[c-1]
	}
	p.Rows = make([]int32, p.Offsets[len(p.Offsets)-1])
	next := append([]int32(nil), p.Offsets[:len(p.Offsets)-1]...)
	for r, c := range d.Codes {
		if c >= 0 {
			p.Rows[next[c]] = int32(r)
			next[c]++
		} else {
			p.Nulls = append(p.Nulls, int32(r))
		}
	}
	return p
}

// Of returns the ascending rows holding code.
func (p *Postings) Of(code int32) []int32 { return p.Rows[p.Offsets[code]:p.Offsets[code+1]] }

// Count returns the number of rows holding code.
func (p *Postings) Count(code int32) int { return int(p.Offsets[code+1] - p.Offsets[code]) }
