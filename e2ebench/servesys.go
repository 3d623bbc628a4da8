package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"mto/internal/block"
	"mto/internal/engine"
	"mto/internal/reorgd"
	"mto/internal/serve"
	"mto/internal/workload"
)

// servedTenant is a tenantSpec plus how the server hosts it.
type servedTenant struct {
	*tenantSpec
	// pool is the tenant's registered query pool clients draw from.
	pool   []*workload.Query
	weight float64
	reorg  *reorgd.Config
	// phases, for a drifting tenant, are the pools its traffic walks
	// through in order.
	phases [][]*workload.Query
}

// serveSystem is one set-up of a serving workload: every tenant deployed
// on its own segment store behind one started serve.Server.
type serveSystem struct {
	srv     *serve.Server
	h       http.Handler
	tenants []*deployed
}

// serverWorkers is the server's executor pool: one per vCPU of the
// 2-vCPU machine the benchmark is sized for.
const serverWorkers = 2

// buildServe deploys every tenant, starts the server over them and makes
// the cold pass: each tenant's training queries submitted once. Tenants run
// engine.CloudDWOptions, as mto.System does.
func buildServe(tenants []*servedTenant, cacheEntries int, dir string) (*serveSystem, setupTimes, error) {
	var total setupTimes
	sys := &serveSystem{}
	var tcs []serve.TenantConfig
	opts := engine.CloudDWOptions()
	for _, t := range tenants {
		d, st, err := deploy(t.tenantSpec, filepath.Join(dir, t.name))
		if err != nil {
			sys.close()
			return nil, total, err
		}
		total.add(st)
		sys.tenants = append(sys.tenants, d)
		tcs = append(tcs, serve.TenantConfig{
			Name: t.name, Dataset: t.ds, Design: d.design, Store: d.store, Optimizer: d.opt,
			EngineOptions: &opts, Templates: t.pool, Weight: t.weight, Reorg: t.reorg,
		})
	}
	srv, err := serve.New(serve.Config{Tenants: tcs, Workers: serverWorkers, CacheEntries: cacheEntries})
	if err != nil {
		sys.close()
		return nil, total, err
	}
	srv.Start()
	sys.srv, sys.h = srv, srv.Handler()
	ctx := context.Background()
	for _, t := range tenants {
		for _, q := range t.train.Queries {
			if _, err := srv.Submit(ctx, t.name, q); err != nil {
				sys.close()
				return nil, total, fmt.Errorf("%s: cold pass %s: %w", t.name, q.ID, err)
			}
		}
	}
	return sys, total, nil
}

// close drains and stops the server, then closes the stores. A drain that
// outlives its minute leaves nothing to recover: the process is ending.
func (s *serveSystem) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_ = s.srv.Shutdown(ctx)
		cancel()
	}
	for _, d := range s.tenants {
		d.store.Close()
	}
}

// storeStats sums every tenant's backend counters.
func (s *serveSystem) storeStats() block.Stats {
	var total block.Stats
	for _, d := range s.tenants {
		total = sumStats(total, d.store.StatsSnapshot())
	}
	return total
}

// segmentBytesPerRow is segment file bytes over rows stored, across the
// given tenants.
func segmentBytesPerRow(tenants []*deployed) (float64, int64, error) {
	var bytes, rows int64
	for _, d := range tenants {
		b, err := d.segmentBytes()
		if err != nil {
			return 0, 0, err
		}
		bytes += b
		rows += d.rows()
	}
	return ratio(float64(bytes), float64(rows)), bytes, nil
}

// queueSampler polls Server.Stats().QueueDepth until stopped.
type queueSampler struct {
	depths []float64
	stop   chan struct{}
	wg     sync.WaitGroup
}

func sampleQueue(srv *serve.Server) *queueSampler {
	qs := &queueSampler{stop: make(chan struct{})}
	qs.wg.Add(1)
	go func() {
		defer qs.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-qs.stop:
				return
			case <-t.C:
				qs.depths = append(qs.depths, float64(srv.Stats().QueueDepth))
			}
		}
	}()
	return qs
}

func (qs *queueSampler) finish() []float64 {
	close(qs.stop)
	qs.wg.Wait()
	return qs.depths
}

// replayMisses re-executes, on a fresh benchmark-owned engine per tenant,
// up to perTenant distinct queries the server answered from the engine
// (not the result cache) during the load, timing each Engine.Execute.
// The engine layer runs inside the server during the load, so this is how
// the traced run attributes engine time on a serving workload.
func replayMisses(sys *serveSystem, tenants []*servedTenant, plan []arrival, out []outcome, perTenant int) (*engineTally, error) {
	tally := &engineTally{}
	opts := engine.CloudDWOptions()
	for i, t := range tenants {
		d := sys.tenants[i]
		seen := map[string]bool{}
		var qs []*workload.Query
		for j, a := range plan {
			if a.tenant != t.name || seen[a.id] || out[j].resp.Cached || out[j].status != http.StatusOK || len(qs) >= perTenant {
				continue
			}
			seen[a.id] = true
			qs = append(qs, sys.srv.Template(t.name, a.id))
		}
		eng := engine.New(d.store, d.design, t.ds, opts)
		// One untimed pass builds the fresh engine's lazy caches, which the
		// server's long-lived engine already holds.
		if _, err := pass(eng, qs); err != nil {
			return nil, err
		}
		r0 := readRuntime()
		for _, q := range qs {
			t0 := time.Now()
			res, err := eng.Execute(q)
			if err != nil {
				return nil, err
			}
			tally.add(res, time.Since(t0))
		}
		tally.allocBytes += readRuntime().allocBytes - r0.allocBytes
	}
	return tally, nil
}
