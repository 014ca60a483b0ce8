package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/timeslot"
)

// fuzzWorld is the shared market the fuzz target quotes against: a
// half-spiked window (half the samples above the on-demand ceiling,
// F(π̄) = 0.5) so Eq. 14-infeasible cells genuinely exist, plus the
// identical Empirical for the independent feasibility cross-check, and
// the server's HTTP handler, whose clock reads now.
type fuzzWorld struct {
	srv     *Server
	snap    *dist.Empirical
	handler http.Handler
	now     int64
}

var (
	fuzzOnce sync.Once
	fuzz     fuzzWorld
)

func fuzzSetup(t testing.TB) *fuzzWorld {
	fuzzOnce.Do(func() {
		xs := make([]float64, 64)
		for i := range xs {
			if i%2 == 0 {
				xs[i] = 0.9 // above the 0.35 ceiling
			} else {
				xs[i] = 0.05 + 0.0001*float64(i)
			}
		}
		snap, err := dist.NewEmpirical(xs, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{
			Types:         []instances.Type{instances.R3XLarge},
			WindowSlots:   64,
			MinSamples:    2,
			RebuildEvery:  1,
			FreshForSlots: 1 << 20,
			StaleForSlots: 1 << 21,
			Admission:     AdmitConfig{Burst: [NumClasses]float64{1 << 30, 1 << 30, 1 << 30}},
		})
		if err != nil {
			t.Fatal(err)
		}
		key := srv.Keys()[0]
		for i, x := range xs {
			srv.SetSlot(i)
			if err := srv.Ingest(key, i, x); err != nil {
				t.Fatal(err)
			}
		}
		srv.MaybeRebuild(63)
		if srv.Table(key) == nil {
			t.Fatal("fuzz world failed to build a table")
		}
		fuzz = fuzzWorld{srv: srv, snap: snap,
			handler: NewHandler(srv, func() int64 { return fuzz.now })}
	})
	return &fuzz
}

// FuzzQuoteRequest holds the whole request path to its safety
// contract under arbitrary input: the decoder never panics and never
// accepts non-finite numbers; the server never serves a NaN, negative
// or above-ceiling price; and no response ever claims feasibility for
// an Eq. 14-infeasible (t_r, t_k, F_π) triple — cross-checked against
// core.Eq14Feasible on the identical distribution. The same query also
// goes through the HTTP handler: it must append exactly one outcome to
// the ledger and answer with that outcome's status, refuse an oversize
// query as invalid, and serve only bodies that decode to a finite,
// non-negative price at or below the ceiling.
func FuzzQuoteRequest(f *testing.F) {
	f.Add("type=r3.xlarge&exec_hours=4", int64(1))
	f.Add("type=r3.xlarge&exec_hours=12&recovery_seconds=600&class=batch", int64(1_000_000))
	f.Add("type=r3.xlarge&exec_hours=1&recovery_seconds=60&class=interactive&budget_micros=100000", int64(7))
	f.Add("type=r3.xlarge&exec_hours=0.5&recovery_seconds=1799", int64(0))
	f.Add("type=nope&exec_hours=1", int64(3))
	f.Add("exec_hours=NaN&type=r3.xlarge", int64(9))
	f.Add("type=r3.xlarge&exec_hours=Inf", int64(2))
	f.Add("type=r3.xlarge&exec_hours=1&recovery_seconds=-5", int64(4))
	f.Add("type=r3.xlarge&exec_hours=1e999", int64(5))
	f.Add("type=r3.xlarge&exec_hours=1&budget_micros=-1", int64(6))
	f.Add("%gh&==&;;&&&", int64(8))
	f.Add("type=r3.xlarge&exec_hours=4&pad="+strings.Repeat("x", maxQueryBytes), int64(10))

	w := fuzzSetup(f)

	f.Fuzz(func(t *testing.T, rawQuery string, nowMicros int64) {
		checkHandler(t, w, rawQuery, nowMicros)

		vals, err := url.ParseQuery(rawQuery)
		if err != nil {
			return
		}
		req, err := DecodeQuoteRequest(vals, nowMicros)
		if err != nil {
			return // rejected input must simply not panic
		}
		if verr := req.Validate(); verr != nil {
			t.Fatalf("decoder accepted a request Validate rejects: %v (query %q)", verr, rawQuery)
		}
		if math.IsNaN(req.ExecHours) || math.IsInf(req.ExecHours, 0) ||
			math.IsNaN(req.RecoverySeconds) || math.IsInf(req.RecoverySeconds, 0) {
			t.Fatalf("decoder let a non-finite duration through: %+v", req)
		}
		if req.DeadlineMicros <= req.NowMicros {
			t.Fatalf("decoder produced a dead-on-arrival deadline: %+v", req)
		}

		resp, out := w.srv.Quote(req)
		if !out.Served() {
			return
		}
		q := resp.Quote
		if math.IsNaN(q.Price) || q.Price < 0 || math.IsInf(q.Price, 0) {
			t.Fatalf("served price %v for %q", q.Price, rawQuery)
		}
		if q.Price > 0.35 {
			t.Fatalf("served price %v above the on-demand ceiling for %q", q.Price, rawQuery)
		}
		if math.IsNaN(q.ExpectedCost) || q.ExpectedCost < 0 {
			t.Fatalf("served expected cost %v for %q", q.ExpectedCost, rawQuery)
		}
		if !q.Feasible {
			t.Fatalf("served an infeasible quote for %q", rawQuery)
		}
		if resp.RecoverySeconds > 0 {
			recHours := timeslot.Seconds(resp.RecoverySeconds)
			if !core.Eq14Feasible(w.snap, timeslot.DefaultSlot, recHours, 0.35) {
				t.Fatalf("served feasible=true for Eq. 14-infeasible recovery %vs (query %q)",
					resp.RecoverySeconds, rawQuery)
			}
		}
	})
}

// checkHandler sends one GET /v1/quote with the raw query through the
// fuzz world's handler and holds the answer to the ledger.
func checkHandler(t *testing.T, w *fuzzWorld, rawQuery string, nowMicros int64) {
	t.Helper()
	before := w.srv.Audit().Counts()
	w.now = nowMicros
	req := httptest.NewRequest(http.MethodGet, "/v1/quote", nil)
	req.URL.RawQuery = rawQuery
	rr := httptest.NewRecorder()
	w.handler.ServeHTTP(rr, req)

	after := w.srv.Audit().Counts()
	newest, added := NumOutcomes, uint64(0)
	for o := range after {
		if d := after[o] - before[o]; d > 0 {
			newest, added = Outcome(o), added+d
		}
	}
	if added != 1 {
		t.Fatalf("query %q added %d outcomes to the ledger, want 1", rawQuery, added)
	}
	if rr.Code != statusOf(newest) {
		t.Fatalf("query %q: status %d, ledger outcome %v (status %d)", rawQuery, rr.Code, newest, statusOf(newest))
	}
	if len(rawQuery) > maxQueryBytes && newest != OutcomeRejectedInvalid {
		t.Fatalf("oversize query of %d bytes ended %v", len(rawQuery), newest)
	}
	if rr.Code != http.StatusOK {
		return
	}
	var resp QuoteResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("query %q: 200 body %q does not decode: %v", rawQuery, rr.Body.Bytes(), err)
	}
	if p := resp.Quote.Price; !(p >= 0 && p <= 0.35) {
		t.Fatalf("query %q: served price %v outside [0, 0.35]", rawQuery, p)
	}
	if c := resp.Quote.ExpectedCost; !(c >= 0) || math.IsInf(c, 0) {
		t.Fatalf("query %q: served expected cost %v", rawQuery, c)
	}
}
