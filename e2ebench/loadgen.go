package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mto/internal/serve"
)

// arrival is one scheduled request of an open-loop run: which tenant's
// registered query to submit, and when it is due (offset from the run's
// start).
type arrival struct {
	due    time.Duration
	tenant string
	id     string
	// keep retains the response body for the post-run output check.
	keep bool
}

// outcome is one request's measured fate. Latency runs from the due time
// to the response, so a stall delays every request due behind it; late is
// how far behind schedule the generator dispatched it.
type outcome struct {
	latency, late time.Duration
	// done is when the response arrived, as an offset from the run start.
	done   time.Duration
	status int
	resp   serve.QueryResponse
	body   []byte
}

// poissonPlan schedules rate×dur arrivals as a Poisson process over dur
// conditioned on that count: sorted seeded uniform due times. Fixing the
// count keeps every run's sample size equal. The caller fills in each
// arrival's tenant and query.
func poissonPlan(rng *rand.Rand, rate float64, dur time.Duration) []arrival {
	plan := make([]arrival, int(math.Round(rate*dur.Seconds())))
	for i := range plan {
		plan[i].due = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].due < plan[j].due })
	return plan
}

// openLoop dispatches every arrival at its due time through the server's
// HTTP handler, in-process, each request on its own goroutine — so a slow
// response never delays the next dispatch — and waits for all responses.
// Due times are offsets from start; completed counts responses as they
// arrive.
func openLoop(h http.Handler, plan []arrival, start time.Time, completed *atomic.Int64) ([]outcome, time.Duration) {
	bodies := make([][]byte, len(plan))
	for i, a := range plan {
		bodies[i], _ = json.Marshal(serve.QueryRequest{Tenant: a.tenant, ID: a.id}) // strings only: cannot fail
	}
	out := make([]outcome, len(plan))
	var wg sync.WaitGroup
	for i := range plan {
		if d := plan[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(start) - plan[i].due
		wg.Add(1)
		go func(i int, late time.Duration) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(bodies[i])))
			o := &out[i]
			o.done = time.Since(start)
			o.latency = o.done - plan[i].due
			o.late = late
			o.status = rec.Code
			if rec.Code == http.StatusOK {
				body := rec.Body.Bytes()
				if err := json.Unmarshal(body, &o.resp); err != nil {
					o.status = -1
				}
				if plan[i].keep {
					o.body = body
				}
			}
			completed.Add(1)
		}(i, late)
	}
	wg.Wait()
	return out, time.Since(start)
}

// closedLoop runs clients concurrent clients, each submitting the plan's
// next request (cycling through it) through the handler as soon as its
// previous one returns, until dur has passed; due times are ignored. It
// waits for the requests in flight and returns the issued ones with their
// outcomes, and how many completed successfully within dur.
func closedLoop(h http.Handler, plan []arrival, clients int, dur time.Duration) ([]arrival, []outcome, int) {
	issued := make([][]arrival, clients)
	outs := make([][]outcome, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				a := plan[int(next.Add(1)-1)%len(plan)]
				body, _ := json.Marshal(serve.QueryRequest{Tenant: a.tenant, ID: a.id}) // strings only: cannot fail
				t0 := time.Since(start)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
				o := outcome{done: time.Since(start), status: rec.Code}
				o.latency = o.done - t0
				if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &o.resp) != nil {
					o.status = -1
				}
				issued[c], outs[c] = append(issued[c], a), append(outs[c], o)
			}
		}(c)
	}
	wg.Wait()
	var plans []arrival
	var all []outcome
	inTime := 0
	for c := range outs {
		plans, all = append(plans, issued[c]...), append(all, outs[c]...)
		for _, o := range outs[c] {
			if o.status == http.StatusOK && o.done <= dur {
				inTime++
			}
		}
	}
	return plans, all, inTime
}

// loadSummary condenses a set of outcomes. failed counts every non-200
// response; errors the ones that are neither a 429 nor a 503 rejection.
type loadSummary struct {
	n, ok, failed, errors, cached, engineRuns, blocks int64
	lat, late                                         []float64 // ms
	perTenant                                         map[string][]float64
}

func summarize(plan []arrival, out []outcome) *loadSummary {
	s := &loadSummary{perTenant: map[string][]float64{}}
	for i, o := range out {
		s.n++
		l := ms(o.latency)
		s.lat = append(s.lat, l)
		s.late = append(s.late, ms(o.late))
		s.perTenant[plan[i].tenant] = append(s.perTenant[plan[i].tenant], l)
		if o.status != http.StatusOK {
			s.failed++
			if o.status != http.StatusTooManyRequests && o.status != http.StatusServiceUnavailable {
				s.errors++
			}
			continue
		}
		s.ok++
		if o.resp.Cached {
			s.cached++
		} else {
			s.engineRuns++
			s.blocks += int64(o.resp.BlocksRead)
		}
	}
	return s
}

func (s *loadSummary) p(q float64) float64 { return quantile(append([]float64(nil), s.lat...), q) }

// latencyNote states how a run's latency quantiles were taken.
func latencyNote(n int, what string) string {
	return fmt.Sprintf("n=%d, pooled over the run, %s", n, what)
}

// checkServed compares every kept response with the server's direct
// execution of the same query (no queue, no cache, fresh engine), fetched
// through the same HTTP handler. At the same layout generation the
// payloads must be identical with Cached masked; across a generation swap
// only the layout-invariant Aggregates are compared. Checks run after the
// load, outside the timed phase.
func checkServed(cfg *config, rep *report, h http.Handler, plan []arrival, out []outcome) error {
	checked, sameGen := 0, 0
	for i, a := range plan {
		if !a.keep || out[i].status != http.StatusOK {
			continue
		}
		body, _ := json.Marshal(serve.QueryRequest{Tenant: a.tenant, ID: a.id, Direct: true}) // cannot fail
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("direct %s/%s: status %d: %s", a.tenant, a.id, rec.Code, rec.Body.String())
		}
		var got, want serve.QueryResponse
		if err := json.Unmarshal(out[i].body, &got); err != nil {
			return err
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
			return err
		}
		if cfg.injectMismatch && checked == 0 {
			want.BlocksRead++
			want.Aggregates = append(want.Aggregates, "injected")
		}
		checked++
		rep.Attempted++
		got.Cached = false
		if got.Gen == want.Gen {
			sameGen++
			if !sameJSON(got, want) {
				rep.mismatch("%s/%s gen %d: served result differs from direct execution (blocks %d vs %d)",
					a.tenant, a.id, got.Gen, got.BlocksRead, want.BlocksRead)
			}
		} else if !sameJSON(got.Aggregates, want.Aggregates) {
			rep.mismatch("%s/%s: served aggregates at gen %d differ from direct at gen %d: %v vs %v",
				a.tenant, a.id, got.Gen, want.Gen, got.Aggregates, want.Aggregates)
		}
	}
	fmt.Fprintf(cfg.out, "check %d served responses vs direct execution (%d at the same generation, the rest aggregates only)\n",
		checked, sameGen)
	return nil
}

// sameJSON compares two values by their JSON encodings, the form in
// which clients see them.
func sameJSON(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}
