package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

var allJoinTypes = []workload.JoinType{
	workload.InnerJoin, workload.SemiJoin, workload.LeftOuterJoin, workload.RightOuterJoin,
	workload.LeftAntiSemiJoin, workload.RightAntiSemiJoin, workload.FullOuterJoin,
}

// skewedDS builds tables a, b and c with int (k), string (s) and float (f)
// join keys drawn from skewed distributions over overlapping but unequal
// domains, about a tenth of them null, plus a uniform filter column v.
func skewedDS(rng *rand.Rand) *relation.Dataset {
	ds := relation.NewDataset()
	for i, name := range []string{"a", "b", "c"} {
		tbl := relation.NewTable(relation.MustSchema(name,
			relation.Column{Name: "id", Type: value.KindInt, Unique: true},
			relation.Column{Name: "k", Type: value.KindInt},
			relation.Column{Name: "s", Type: value.KindString},
			relation.Column{Name: "f", Type: value.KindFloat},
			relation.Column{Name: "v", Type: value.KindInt},
		))
		rows := 150 + rng.Intn(300)
		skewed := func() int { return 5*i + rng.Intn(1+rng.Intn(40)) }
		for r := 0; r < rows; r++ {
			k, s, f := value.Int(int64(skewed())), value.String(fmt.Sprintf("s%d", skewed())), value.Float(float64(skewed())/2)
			if rng.Intn(10) == 0 {
				k = value.Null
			}
			if rng.Intn(10) == 0 {
				s = value.Null
			}
			if rng.Intn(10) == 0 {
				f = value.Null
			}
			tbl.MustAppendRow(value.Int(int64(r)), k, s, f, value.Int(int64(rng.Intn(100))))
		}
		ds.MustAddTable(tbl)
	}
	return ds
}

// differentialQueries joins a to b on each key column under every join
// type, with source-side filters that leave tiny key sets (the postings
// paths), large ones (the walk paths) or every row, and extends some to a
// chain through c, to a self-join of a and to keys of different kinds,
// which never match.
func differentialQueries(rng *rand.Rand) []*workload.Query {
	tiny := func() predicate.Predicate {
		return predicate.NewComparison("v", predicate.Eq, value.Int(int64(rng.Intn(100))))
	}
	large := func() predicate.Predicate { return predicate.NewComparison("v", predicate.Lt, value.Int(90)) }
	filters := []struct {
		name string
		make func() predicate.Predicate
	}{{"tiny", tiny}, {"large", large}, {"none", func() predicate.Predicate { return nil }}}
	filter := func(q *workload.Query, alias string, p predicate.Predicate) {
		if p != nil {
			q.Filter(alias, p)
		}
	}
	var qs []*workload.Query
	for _, jt := range allJoinTypes {
		for _, col := range []string{"k", "s", "f"} {
			for _, fa := range filters {
				for _, fb := range filters {
					q := workload.NewQuery(fmt.Sprintf("%v/%s/a:%s/b:%s", jt, col, fa.name, fb.name),
						workload.TableRef{Table: "a"}, workload.TableRef{Table: "b"})
					q.AddTypedJoin(workload.Join{Left: "a", LeftColumn: col, Right: "b", RightColumn: col, Type: jt})
					filter(q, "a", fa.make())
					filter(q, "b", fb.make())
					qs = append(qs, q)
				}
			}
			for _, fc := range filters {
				q := workload.NewQuery(fmt.Sprintf("%v/%s/chain/c:%s", jt, col, fc.name),
					workload.TableRef{Table: "a"}, workload.TableRef{Table: "b"}, workload.TableRef{Table: "c"})
				q.AddTypedJoin(workload.Join{Left: "a", LeftColumn: col, Right: "b", RightColumn: col, Type: jt})
				q.AddJoin("b", "s", "c", "s")
				filter(q, "c", fc.make())
				qs = append(qs, q)
			}
		}
		q := workload.NewQuery(fmt.Sprintf("%v/mixed-kinds", jt), workload.TableRef{Table: "a"}, workload.TableRef{Table: "b"})
		q.AddTypedJoin(workload.Join{Left: "a", LeftColumn: "k", Right: "b", RightColumn: "s", Type: jt})
		q.Filter("b", large())
		qs = append(qs, q)
		q = workload.NewQuery(fmt.Sprintf("%v/self", jt),
			workload.TableRef{Table: "a"}, workload.TableRef{Table: "a", Alias: "a2"})
		q.AddTypedJoin(workload.Join{Left: "a", LeftColumn: "k", Right: "a2", RightColumn: "k", Type: jt})
		q.Filter("a2", tiny())
		qs = append(qs, q)
	}
	return qs
}

// TestReductionDifferential executes seeded queries over small tables with
// null and skewed join keys on both backends and requires every Result to
// DeepEqual the scalar reference's.
func TestReductionDifferential(t *testing.T) {
	withDiPs := CloudDWOptions()
	withDiPs.DiPs = true
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := skewedDS(rng)
		design, err := layout.SortKeyDesign(ds, layout.SortKeys{"a": "v", "b": "k", "c": "id"}, 16)
		if err != nil {
			t.Fatal(err)
		}
		mem := block.NewStore(block.DefaultCostModel())
		disk, err := colstore.NewStore(t.TempDir(), 1<<20, block.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []block.Backend{mem, disk} {
			if _, err := design.Install(st, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		qs := differentialQueries(rng)
		for optName, opts := range map[string]Options{
			"default": DefaultOptions(), "cloudDW": CloudDWOptions(), "cloudDW+diPs": withDiPs,
		} {
			ref := New(mem, design, ds, opts)
			engines := map[string]*Engine{"mem": New(mem, design, ds, opts), "disk": New(disk, design, ds, opts)}
			for _, q := range qs {
				want, err := ref.ExecuteReference(q)
				if err != nil {
					t.Fatalf("seed %d %s %s: reference: %v", seed, optName, q.ID, err)
				}
				for name, e := range engines {
					got, err := e.Execute(q)
					if err != nil {
						t.Fatalf("seed %d %s %s on %s: %v", seed, optName, q.ID, name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d %s %s on %s: diverges from reference:\n got %+v\nwant %+v",
							seed, optName, q.ID, name, got.SurvivingRows, want.SurvivingRows)
					}
				}
			}
		}
		disk.Close()
	}
}
