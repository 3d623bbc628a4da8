package main

import (
	"fmt"
	"time"

	"mto/internal/block"
	"mto/internal/engine"
)

// engineTally accumulates engine.Execute calls timed by the benchmark and
// the pruning funnel each Result reports.
type engineTally struct {
	lat                               []float64 // ms per call
	total                             time.Duration
	queries, blocks, rows             int64
	afterRouting, afterZone, afterDiP int64
	allocBytes                        float64
}

func (t *engineTally) add(res *engine.Result, d time.Duration) {
	t.lat = append(t.lat, ms(d))
	t.total += d
	t.queries++
	t.blocks += int64(res.BlocksRead)
	for _, ta := range res.PerTable {
		t.rows += int64(ta.RowsScanned)
		t.afterRouting += int64(ta.AfterRouting)
		t.afterZone += int64(ta.AfterZoneMap)
		t.afterDiP += int64(ta.AfterDiPs)
	}
}

// report writes the engine-layer metrics; note says where the calls ran.
func (t *engineTally) report(rep *report, note string) {
	q := float64(t.queries)
	n := fmt.Sprintf("n=%d, %s", t.queries, note)
	rep.set("engine.execute_ms.p50", quantile(append([]float64(nil), t.lat...), 0.50), n)
	rep.set("engine.execute_ms.p99", quantile(append([]float64(nil), t.lat...), 0.99), n)
	rep.set("engine.ms_per_block", ratio(ms(t.total), float64(t.blocks)), "")
	rep.set("engine.rows_scanned_per_q", ratio(float64(t.rows), q), "")
	rep.set("engine.alloc_mb_per_q", ratio(t.allocBytes/(1<<20), q), "heap bytes allocated while the calls ran")
	rep.set("engine.after_routing_per_q", ratio(float64(t.afterRouting), q), "")
	rep.set("engine.after_zonemap_per_q", ratio(float64(t.afterZone), q), "")
	rep.set("engine.after_dips_per_q", ratio(float64(t.afterDiP), q), "")
	rep.set("engine.reduce_keep_ratio", ratio(float64(t.blocks), float64(t.afterDiP)), "BlocksRead / AfterDiPs")
}

// reportStore writes the colstore-layer metrics from a backend counter
// delta over a phase with the given number of engine executions.
func reportStore(rep *report, d block.Stats, queries int64) {
	q := float64(queries)
	rep.set("colstore.pool_hit_ratio", ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses)),
		fmt.Sprintf("%d hits, %d misses", d.CacheHits, d.CacheMisses))
	rep.set("colstore.bytes_read_per_q", ratio(float64(d.BytesRead), q), "")
	rep.set("colstore.evictions_per_q", ratio(float64(d.CacheEvictions), q), "")
	rep.set("colstore.readahead_useful_ratio", ratio(float64(d.ReadaheadHits), float64(d.Prefetched)),
		fmt.Sprintf("%d of %d prefetched", d.ReadaheadHits, d.Prefetched))
	rep.set("colstore.blocks_written", float64(d.BlocksWritten), "")
}

func sumStats(a, b block.Stats) block.Stats {
	return block.Stats{
		BlocksRead:     a.BlocksRead + b.BlocksRead,
		BlocksWritten:  a.BlocksWritten + b.BlocksWritten,
		RowsRead:       a.RowsRead + b.RowsRead,
		RowsWritten:    a.RowsWritten + b.RowsWritten,
		CacheHits:      a.CacheHits + b.CacheHits,
		CacheMisses:    a.CacheMisses + b.CacheMisses,
		CacheEvictions: a.CacheEvictions + b.CacheEvictions,
		BytesRead:      a.BytesRead + b.BytesRead,
		Prefetched:     a.Prefetched + b.Prefetched,
		ReadaheadHits:  a.ReadaheadHits + b.ReadaheadHits,
	}
}
