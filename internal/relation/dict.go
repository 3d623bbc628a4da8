package relation

import (
	"fmt"
	"sort"

	"mto/internal/value"
)

// ColumnDict is a sorted dictionary encoding of one column: every row maps
// to the rank of its value among the column's distinct values (-1 for null
// rows). Join-key kernels probe int32 codes instead of boxed value.Value
// map keys, and because codes are ranks, iterating a code set in ascending
// order yields the values in sorted order — exactly what zone-interval
// pruning wants. Only int and string columns are supported (float join
// keys fall back to the boxed path). Table.Dict caches one per column.
type ColumnDict struct {
	Kind    value.Kind
	Codes   []int32  // row → code; -1 for null rows
	Ints    []int64  // code → value, ascending (int columns)
	Strs    []string // code → value, ascending (string columns)
	HasNull bool     // some row is null (holds code -1)
}

// BuildColumnDict dictionary-encodes the named column of t.
func BuildColumnDict(t *Table, col string) (*ColumnDict, error) {
	ci, ok := t.Schema().ColumnIndex(col)
	if !ok {
		return nil, fmt.Errorf("relation: %s: no column %q", t.Schema().Table(), col)
	}
	kind := t.Schema().Column(ci).Type
	d := &ColumnDict{Kind: kind, Codes: make([]int32, t.NumRows())}
	nulls := t.Nulls(ci)
	for _, null := range nulls {
		if null {
			d.HasNull = true
			break
		}
	}
	switch kind {
	case value.KindInt:
		vals := t.Ints(ci)
		distinct := make([]int64, 0, len(vals))
		for r, v := range vals {
			if nulls == nil || !nulls[r] {
				distinct = append(distinct, v)
			}
		}
		sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
		distinct = dedupSorted(distinct)
		d.Ints = distinct
		for r, v := range vals {
			if nulls != nil && nulls[r] {
				d.Codes[r] = -1
				continue
			}
			d.Codes[r] = int32(sort.Search(len(distinct), func(i int) bool { return distinct[i] >= v }))
		}
	case value.KindString:
		vals := t.Strings(ci)
		distinct := make([]string, 0, len(vals))
		for r, v := range vals {
			if nulls == nil || !nulls[r] {
				distinct = append(distinct, v)
			}
		}
		sort.Strings(distinct)
		distinct = dedupSorted(distinct)
		d.Strs = distinct
		for r, v := range vals {
			if nulls != nil && nulls[r] {
				d.Codes[r] = -1
				continue
			}
			d.Codes[r] = int32(sort.SearchStrings(distinct, v))
		}
	default:
		return nil, fmt.Errorf("relation: cannot dictionary-encode %s column %q", kind, col)
	}
	return d, nil
}

func dedupSorted[T comparable](s []T) []T {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// NumCodes returns the number of distinct non-null values.
func (d *ColumnDict) NumCodes() int {
	if d.Kind == value.KindInt {
		return len(d.Ints)
	}
	return len(d.Strs)
}

// Value boxes the value behind a code.
func (d *ColumnDict) Value(code int32) value.Value {
	if d.Kind == value.KindInt {
		return value.Int(d.Ints[code])
	}
	return value.String(d.Strs[code])
}

// CodeRange translates one literal into d's code space: lo is the rank of
// the first dictionary value ≥ v, hi is the rank just past the last value
// ≤ v, and exists reports whether v itself is in the dictionary (so
// hi == lo+1 when it is, hi == lo when it is not). Because codes are
// ranks in the sorted value list, every comparison predicate on values
// becomes a code probe: v' < v ⇔ code < lo, v' ≤ v ⇔ code < hi,
// v' = v ⇔ exists ∧ code == lo, v' ≥ v ⇔ code ≥ lo, v' > v ⇔ code ≥ hi.
// A literal of a different kind is below every value (lo = hi = 0).
//
// This is the same sorted-dict contract colstore's compressed scan applies
// to segment dictionary pages — one representation shared by the engine's
// join-key caches and the storage encoding — so a query translates each
// literal once per dictionary, and codes translate order-preservingly
// between the two worlds via TranslateCodes (see DESIGN.md).
func (d *ColumnDict) CodeRange(v value.Value) (lo, hi int32, exists bool) {
	switch {
	case d.Kind == value.KindInt && v.Kind() == value.KindInt:
		x := v.Int()
		l := sort.Search(len(d.Ints), func(i int) bool { return d.Ints[i] >= x })
		exists = l < len(d.Ints) && d.Ints[l] == x
		lo = int32(l)
	case d.Kind == value.KindString && v.Kind() == value.KindString:
		x := v.Str()
		l := sort.SearchStrings(d.Strs, x)
		exists = l < len(d.Strs) && d.Strs[l] == x
		lo = int32(l)
	}
	hi = lo
	if exists {
		hi++
	}
	return lo, hi, exists
}

// TranslateCodes returns, for every code of from, the code of the equal
// value in to, or -1 when to's column never holds it. Dictionaries of
// different kinds translate to all -1: join-key membership uses exact
// value identity (the boxed path's map keys compare by kind and payload),
// so an int key never matches a string or float column. Both value lists
// are sorted, so the translation is a single merge.
func TranslateCodes(from, to *ColumnDict) []int32 {
	out := make([]int32, from.NumCodes())
	for i := range out {
		out[i] = -1
	}
	if from.Kind != to.Kind {
		return out
	}
	if from.Kind == value.KindInt {
		mergeCodes(from.Ints, to.Ints, out)
	} else {
		mergeCodes(from.Strs, to.Strs, out)
	}
	return out
}

func mergeCodes[T int64 | string](from, to []T, out []int32) {
	j := 0
	for i, v := range from {
		for j < len(to) && to[j] < v {
			j++
		}
		if j < len(to) && to[j] == v {
			out[i] = int32(j)
		}
	}
}
