package colstore

import (
	"math/bits"
	"testing"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/value"
)

// BenchmarkCompressedScan compares the two ways a selective filtered scan
// can run against the segment store, both with a cold (disabled) buffer
// pool so every iteration pays the real page reads:
//
//   - full-decode: ReadBlockData decodes every column of every block, then
//     the predicate is evaluated over the decoded vectors (the pre-existing
//     scan path);
//   - compressed: ScanBlock evaluates the predicate directly on the encoded
//     pages (dict code ranges, FOR-rebased literals) and only the surviving
//     rows of the one consumed column are materialized.
//
// The workload is the paper's motivating shape — a highly selective
// conjunctive filter touching 2 of 6 columns — where late materialization
// should win by well over the 1.5× the acceptance bar asks for.
func BenchmarkCompressedScan(b *testing.B) {
	const nrows = 100_000
	tab := scanTable(b, nrows)
	groups := [][]int32{seqRows(nrows)}
	tl, err := block.NewTableLayout(tab, groups, 4096)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(b.TempDir(), 0, block.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SetLayout("sc", tl); err != nil {
		b.Fatal(err)
	}
	nb := s.NumBlocks("sc")

	// ~2% of rows survive: 1 of 8 dict values and the top sixth of i_for.
	preds := []predicate.Predicate{predicate.NewAnd(
		predicate.NewComparison("s_dict", predicate.Eq, value.String("v03")),
		predicate.NewComparison("i_for", predicate.Gt, value.Int(250)),
	)}

	b.Run("compressed", func(b *testing.B) {
		scan := s.CompileScan("sc", preds)
		if scan == nil {
			b.Fatal("table has no segment")
		}
		b.ReportAllocs()
		masks := make([][]uint64, 1)
		masks[0] = make([]uint64, (nrows+63)/64)
		sel := make([]int32, 0, 4096)
		survivors := 0
		for i := 0; i < b.N; i++ {
			survivors = 0
			for id := 0; id < nb; id++ {
				// The layout is sequential, so block id covers global rows
				// [start, start+4096) — whole mask words, since 4096 % 64 == 0.
				start := id * 4096
				w0 := start / 64
				w1 := w0 + 64
				if w1 > len(masks[0]) {
					w1 = len(masks[0])
				}
				for w := w0; w < w1; w++ {
					masks[0][w] = 0
				}
				if _, err := scan.ScanBlock(id, masks); err != nil {
					b.Fatal(err)
				}
				sel = sel[:0]
				for w := w0; w < w1; w++ {
					for word := masks[0][w]; word != 0; word &= word - 1 {
						sel = append(sel, int32(w*64+bits.TrailingZeros64(word)-start))
					}
				}
				if len(sel) == 0 {
					continue
				}
				cols, err := s.MaterializeRows("sc", id, sel, []string{"f"})
				if err != nil {
					b.Fatal(err)
				}
				survivors += len(cols[0].Floats)
			}
		}
		b.ReportMetric(float64(survivors), "survivor-rows")
	})

	b.Run("full-decode", func(b *testing.B) {
		b.ReportAllocs()
		survivors := 0
		for i := 0; i < b.N; i++ {
			survivors = 0
			for id := 0; id < nb; id++ {
				bd, err := s.ReadBlockData("sc", id)
				if err != nil {
					b.Fatal(err)
				}
				// scanTable schema order: i_for, i_delta, i_raw, f, s_dict, s_raw.
				ifor, f, sd := &bd.Cols[0], &bd.Cols[3], &bd.Cols[4]
				for r := range bd.Block.Rows {
					if sd.Nulls != nil && sd.Nulls[r] || ifor.Nulls != nil && ifor.Nulls[r] {
						continue
					}
					if sd.Strs[r] == "v03" && ifor.Ints[r] > 250 {
						_ = f.Floats[r]
						survivors++
					}
				}
			}
		}
		b.ReportMetric(float64(survivors), "survivor-rows")
	})
}
