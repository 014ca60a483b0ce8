package serve_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/instances"
	"repro/internal/invariant"
	"repro/internal/serve"
)

// TestOversizeQueryRejected: a /v1/quote query past 1 KiB is refused
// unparsed with 400 rejected_invalid and enters the ledger like any
// malformed query, so conservation still holds; a query at the bound,
// and a plain valid one after the refusal, are still served.
func TestOversizeQueryRejected(t *testing.T) {
	cfg := serve.Config{
		Types:         []instances.Type{instances.R3XLarge},
		WindowSlots:   64,
		MinSamples:    2,
		RebuildEvery:  1,
		FreshForSlots: 1 << 20,
		StaleForSlots: 1 << 21,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := srv.Keys()[0]
	for slot := 0; slot < 64; slot++ {
		srv.SetSlot(slot)
		if err := srv.Ingest(key, slot, 0.05+0.001*float64(slot%7)); err != nil {
			t.Fatal(err)
		}
	}
	srv.MaybeRebuild(63)
	tbl := srv.Table(key)
	if tbl == nil {
		t.Fatal("no table built")
	}
	var clock int64
	h := serve.NewHandler(srv, func() int64 { clock += 1000; return clock })
	get := func(query string) int {
		req := httptest.NewRequest(http.MethodGet, "/v1/quote", nil)
		req.URL.RawQuery = query
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr.Code
	}
	rejected := func() uint64 { return srv.Audit().Counts()[serve.OutcomeRejectedInvalid] }

	const bound = 1 << 10 // the handler's query bound
	valid := "type=r3.xlarge&exec_hours=4&class=interactive"
	atBound := valid + "&pad=" + strings.Repeat("x", bound-len(valid)-len("&pad="))
	if code := get(atBound); code != http.StatusOK {
		t.Fatalf("query of exactly %d bytes: status %d, want 200", len(atBound), code)
	}
	before := rejected()
	if code := get(atBound + "x"); code != http.StatusBadRequest {
		t.Fatalf("query of %d bytes: status %d, want 400", len(atBound)+1, code)
	}
	if got := rejected(); got != before+1 {
		t.Fatalf("rejected_invalid went from %d to %d, want one more", before, got)
	}
	if code := get(valid); code != http.StatusOK {
		t.Fatalf("valid query after the refusal: status %d, want 200", code)
	}

	audit := srv.Audit()
	st := &invariant.ServeRunState{
		FreshForSlots: cfg.FreshForSlots,
		StaleForSlots: cfg.StaleForSlots,
		Total:         audit.Total(),
		Counts:        audit.Counts(),
		Published:     map[int16]map[uint64]uint64{0: {tbl.Version: tbl.Fingerprint}},
	}
	if st.Total != 3 {
		t.Fatalf("ledger holds %d requests, want 3", st.Total)
	}
	for _, v := range invariant.VerifyServe(audit.Records(), st) {
		t.Errorf("%s: %s", v.Checker, v.Detail)
	}
}
