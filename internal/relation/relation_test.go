package relation

import (
	"math/rand"
	"reflect"
	"testing"

	"mto/internal/value"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema("t",
		Column{Name: "id", Type: value.KindInt, Unique: true},
		Column{Name: "price", Type: value.KindFloat},
		Column{Name: "name", Type: value.KindString},
	)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty table name accepted")
	}
	if _, err := NewSchema("t", Column{Name: "", Type: value.KindInt}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema("t",
		Column{Name: "a", Type: value.KindInt},
		Column{Name: "a", Type: value.KindInt}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("t", Column{Name: "a", Type: value.KindNull}); err == nil {
		t.Error("null column type accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustSchema should panic on error")
			}
		}()
		MustSchema("")
	}()
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.Table() != "t" || s.NumColumns() != 3 {
		t.Fatalf("basic accessors wrong: %s/%d", s.Table(), s.NumColumns())
	}
	if i, ok := s.ColumnIndex("price"); !ok || i != 1 {
		t.Errorf("ColumnIndex(price) = %d,%v", i, ok)
	}
	if _, ok := s.ColumnIndex("missing"); ok {
		t.Error("found missing column")
	}
	if s.MustColumnIndex("name") != 2 {
		t.Error("MustColumnIndex wrong")
	}
	if !s.IsUnique("id") || s.IsUnique("price") || s.IsUnique("missing") {
		t.Error("IsUnique wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustColumnIndex should panic")
			}
		}()
		s.MustColumnIndex("missing")
	}()
}

func TestTableAppendAndRead(t *testing.T) {
	tab := NewTable(testSchema(t))
	tab.MustAppendRow(value.Int(1), value.Float(9.5), value.String("a"))
	tab.MustAppendRow(value.Int(2), value.Null, value.String("b"))
	tab.MustAppendRow(value.Int(3), value.Int(4), value.Null) // int→float widening

	if tab.NumRows() != 3 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	if got := tab.Value(0, 0); got.Int() != 1 {
		t.Errorf("Value(0,0) = %v", got)
	}
	if got := tab.ValueByName(2, "price"); got.Float() != 4.0 {
		t.Errorf("widened value = %v", got)
	}
	if !tab.Value(1, 1).IsNull() || !tab.IsNullAt(1, 1) {
		t.Error("null not preserved")
	}
	if tab.IsNullAt(0, 1) {
		t.Error("spurious null")
	}
	if !tab.Value(2, 2).IsNull() {
		t.Error("null string not preserved")
	}
	row := tab.Row(1)
	if row[0].Int() != 2 || !row[1].IsNull() || row[2].Str() != "b" {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestTableAppendErrors(t *testing.T) {
	tab := NewTable(testSchema(t))
	if err := tab.AppendRow(value.Int(1)); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tab.AppendRow(value.String("x"), value.Float(1), value.String("a")); err == nil {
		t.Error("wrong type accepted")
	}
	if tab.NumRows() != 0 {
		t.Error("failed append changed row count")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustAppendRow should panic")
			}
		}()
		tab.MustAppendRow(value.Int(1))
	}()
}

func TestRawVectorAccessors(t *testing.T) {
	tab := NewTable(testSchema(t))
	tab.MustAppendRow(value.Int(10), value.Float(1.5), value.String("x"))
	if tab.Ints(0)[0] != 10 || tab.Floats(1)[0] != 1.5 || tab.Strings(2)[0] != "x" {
		t.Error("raw accessors wrong")
	}
	for _, fn := range []func(){
		func() { tab.Ints(1) },
		func() { tab.Floats(0) },
		func() { tab.Strings(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on mistyped raw accessor")
				}
			}()
			fn()
		}()
	}
}

func TestSelectRowsAndAppendTable(t *testing.T) {
	tab := NewTable(testSchema(t))
	for i := 0; i < 10; i++ {
		tab.MustAppendRow(value.Int(int64(i)), value.Float(float64(i)), value.String("r"))
	}
	sel := tab.SelectRows([]int{9, 0, 5})
	if sel.NumRows() != 3 || sel.Value(0, 0).Int() != 9 || sel.Value(2, 0).Int() != 5 {
		t.Error("SelectRows wrong")
	}
	dst := NewTable(tab.Schema())
	if err := dst.AppendTable(sel); err != nil {
		t.Fatal(err)
	}
	if dst.NumRows() != 3 {
		t.Error("AppendTable wrong")
	}
	other := NewTable(MustSchema("o", Column{Name: "x", Type: value.KindInt}))
	if err := dst.AppendTable(other); err == nil {
		t.Error("cross-schema append accepted")
	}
}

func TestSample(t *testing.T) {
	tab := NewTable(testSchema(t))
	for i := 0; i < 10000; i++ {
		tab.MustAppendRow(value.Int(int64(i)), value.Float(0), value.String(""))
	}
	rng := rand.New(rand.NewSource(7))
	s, rows := tab.Sample(0.1, 100, rng)
	if s.NumRows() != len(rows) {
		t.Fatal("mapping length mismatch")
	}
	if s.NumRows() < 700 || s.NumRows() > 1300 {
		t.Errorf("sample size %d far from 1000", s.NumRows())
	}
	for i := 0; i < s.NumRows(); i++ {
		if s.Value(i, 0).Int() != tab.Value(rows[i], 0).Int() {
			t.Fatal("sample mapping wrong")
		}
	}
	// Small tables are kept whole.
	small := NewTable(testSchema(t))
	for i := 0; i < 50; i++ {
		small.MustAppendRow(value.Int(int64(i)), value.Float(0), value.String(""))
	}
	w, wr := small.Sample(0.01, 100, rng)
	if w.NumRows() != 50 || len(wr) != 50 {
		t.Error("small table was sampled")
	}
	// rate >= 1 keeps everything.
	full, _ := tab.Sample(1.0, 0, rng)
	if full.NumRows() != tab.NumRows() {
		t.Error("rate=1 sampled")
	}
	// A pathological rate still returns at least one row.
	tiny, _ := tab.Sample(1e-9, 0, rng)
	if tiny.NumRows() == 0 {
		t.Error("sample returned zero rows")
	}
}

func TestDataset(t *testing.T) {
	d := NewDataset()
	a := NewTable(MustSchema("a", Column{Name: "x", Type: value.KindInt}))
	b := NewTable(MustSchema("b", Column{Name: "y", Type: value.KindInt}))
	a.MustAppendRow(value.Int(1))
	b.MustAppendRow(value.Int(2))
	b.MustAppendRow(value.Int(3))
	d.MustAddTable(a)
	d.MustAddTable(b)
	if err := d.AddTable(a); err == nil {
		t.Error("duplicate table accepted")
	}
	if d.Table("a") != a || d.Table("nope") != nil {
		t.Error("Table lookup wrong")
	}
	names := d.TableNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("TableNames = %v", names)
	}
	if d.NumRows() != 3 {
		t.Errorf("NumRows = %d", d.NumRows())
	}
	s, mapping := d.Sample(0.5, 0, rand.New(rand.NewSource(1)))
	if s.Table("a") == nil || s.Table("b") == nil {
		t.Error("sampled dataset missing tables")
	}
	if len(mapping["a"]) != s.Table("a").NumRows() {
		t.Error("mapping mismatch")
	}
}

func TestPostings(t *testing.T) {
	tab := NewTable(MustSchema("t",
		Column{Name: "k", Type: value.KindInt},
		Column{Name: "s", Type: value.KindString},
		Column{Name: "f", Type: value.KindFloat},
	))
	tab.MustAppendRow(value.Int(1), value.String("a"), value.Float(0))
	tab.MustAppendRow(value.Int(2), value.String("b"), value.Float(0))
	tab.MustAppendRow(value.Int(1), value.Null, value.Float(0))
	tab.MustAppendRow(value.Null, value.String("a"), value.Float(0))

	// lookup resolves a value to its rows through the dictionary, the way
	// secondary-index pruning probes the postings.
	lookup := func(col string, v value.Value) []int32 {
		code, _, ok := tab.Dict(col).CodeRange(v)
		if !ok {
			return nil
		}
		return tab.Postings(col).Of(code)
	}
	if rows := lookup("k", value.Int(1)); len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Errorf("k=1 rows = %v", rows)
	}
	if rows := lookup("k", value.Int(2)); len(rows) != 1 || rows[0] != 1 {
		t.Errorf("k=2 rows = %v", rows)
	}
	if lookup("k", value.Null) != nil {
		t.Error("null lookup should be empty")
	}
	if lookup("k", value.String("a")) != nil {
		t.Error("mistyped lookup should be empty")
	}
	p := tab.Postings("k")
	if len(p.Offsets) != 3 || p.Count(0) != 2 || p.Count(1) != 1 || len(p.Rows) != 3 {
		t.Errorf("k postings = %+v, want 2 codes over the 3 non-null rows", p)
	}
	if len(p.Nulls) != 1 || p.Nulls[0] != 3 {
		t.Errorf("k null rows = %v, want [3]", p.Nulls)
	}
	if !tab.Dict("k").HasNull || !tab.Dict("s").HasNull {
		t.Error("HasNull unset on columns with nulls")
	}
	if rows := lookup("s", value.String("a")); len(rows) != 2 || rows[0] != 0 || rows[1] != 3 {
		t.Errorf("string rows = %v", rows)
	}
	if lookup("s", value.Int(1)) != nil {
		t.Error("int lookup on string postings should be empty")
	}
	if tab.Postings("missing") != nil || tab.Dict("missing") != nil {
		t.Error("postings on missing column")
	}
	if tab.Postings("f") != nil || tab.Dict("f") != nil {
		t.Error("postings on float column")
	}
}

// TestKeyCacheSharedUntilGrowth pins the ownership contract: every
// caller gets the same dictionary, postings and translation objects while
// the table is unchanged, and an append drops them all.
func TestKeyCacheSharedUntilGrowth(t *testing.T) {
	a := NewTable(MustSchema("a", Column{Name: "k", Type: value.KindInt}))
	b := NewTable(MustSchema("b", Column{Name: "k", Type: value.KindInt}))
	for _, v := range []int64{5, 3, 5, 9} {
		a.MustAppendRow(value.Int(v))
	}
	for _, v := range []int64{9, 4, 3} {
		b.MustAppendRow(value.Int(v))
	}
	d, p, x := a.Dict("k"), a.Postings("k"), a.Translation("k", b, "k")
	builds := a.KeyCacheBuilds()
	if builds != 3 {
		t.Fatalf("builds = %d, want dict + postings + translation", builds)
	}
	if a.Dict("k") != d || a.Postings("k") != p || a.Translation("k", b, "k") != x {
		t.Fatal("cached key state rebuilt without growth")
	}
	if a.KeyCacheBuilds() != builds {
		t.Fatalf("builds = %d after cache hits, want %d", a.KeyCacheBuilds(), builds)
	}
	// a's codes: 3→0, 5→1, 9→2; b's: 3→0, 4→1, 9→2.
	if want := []int32{0, -1, 2}; !reflect.DeepEqual(x.Codes, want) {
		t.Fatalf("translation = %v, want %v", x.Codes, want)
	}
	if !x.Matched.Get(0) || x.Matched.Get(1) || !x.Matched.Get(2) || x.MatchedRows != 2 {
		t.Fatalf("matched = %b over %d rows, want codes 0 and 2 over rows 1 and 3", x.Matched, x.MatchedRows)
	}

	// Growing the target rebuilds the translation against its new
	// dictionary; growing the table itself drops everything.
	b.MustAppendRow(value.Int(5))
	if got, want := a.Translation("k", b, "k").Codes, []int32{0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("translation after target growth = %v, want %v", got, want)
	}
	a.MustAppendRow(value.Int(7))
	if a.Dict("k") == d || a.Postings("k") == p {
		t.Fatal("cached key state survived an append")
	}
	if got := a.Postings("k").Of(a.Dict("k").Codes[4]); len(got) != 1 || got[0] != 4 {
		t.Fatalf("appended row's postings = %v", got)
	}
}
