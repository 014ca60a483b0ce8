package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// metricsFormat resolves the /metricz response format: an explicit
// ?format= wins, then the Accept header (first match on a JSON or
// plain-text media type), then JSON. Unknown explicit formats are an
// error; an exotic Accept header just falls back to JSON — curl
// without flags must keep working.
func metricsFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "prom", "prometheus":
		return "prom", nil
	case "json", "":
	default:
		return "", fmt.Errorf("unknown format %q (want json or prom)", f)
	}
	if f := r.URL.Query().Get("format"); f != "" {
		return "json", nil
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch mt {
		case "application/json":
			return "json", nil
		case "text/plain", "application/openmetrics-text":
			return "prom", nil
		}
	}
	return "json", nil
}

// statusOf maps an outcome onto its HTTP status. Shedding is a
// capacity signal (retryable), refusal a data/feasibility answer.
func statusOf(o Outcome) int {
	switch o {
	case OutcomeServedFresh, OutcomeServedStale:
		return http.StatusOK
	case OutcomeRejectedInvalid:
		return http.StatusBadRequest
	case OutcomeRefusedInfeasible:
		return http.StatusUnprocessableEntity
	case OutcomeShedCapacity:
		return http.StatusTooManyRequests
	case OutcomeShedDeadline:
		return http.StatusGatewayTimeout
	default: // cold, stale-refused, draining
		return http.StatusServiceUnavailable
	}
}

// errorBody is the non-200 response document.
type errorBody struct {
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	Slot    int    `json:"slot"`
}

// NewHandler wires the control plane's HTTP surface:
//
//	GET /v1/quote  — the bid-advisory endpoint (see DecodeQuoteRequest)
//	GET /healthz   — liveness: 200 while the process should stay up
//	GET /readyz    — readiness: 200 only when every market serves
//	GET /metricz   — the obs registry snapshot; JSON by default,
//	                 Prometheus text format via ?format=prom or
//	                 an Accept header naming text/plain
//
// The handler is the only place request time enters: nowMicros stamps
// arrivals (spotbidd passes wall-clock micros; tests pass a logical
// clock). JSON encoding allocates — the 0-alloc contract covers
// Server.Quote only. The HTTP edge is timed by the repository
// benchmark's quote workload (perfbench, serve.http_edge_us).
func NewHandler(s *Server, nowMicros func() int64) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/quote", func(w http.ResponseWriter, r *http.Request) {
		now := nowMicros()
		req, err := DecodeQuoteRequest(r.URL.Query(), now)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Outcome: OutcomeRejectedInvalid.String(), Error: err.Error(), Slot: s.Slot()})
			// Decode failures still enter the ledger: conservation
			// counts every request, not just well-formed ones.
			s.audit.append(AuditRecord{Slot: int32(s.Slot()), KeyIdx: -1,
				Outcome: OutcomeRejectedInvalid, NowMicros: now})
			s.mOutcome[OutcomeRejectedInvalid].Inc()
			return
		}
		resp, out := s.Quote(req)
		if code := statusOf(out); code != http.StatusOK {
			writeJSON(w, code, errorBody{Outcome: out.String(), Slot: s.Slot()})
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		code := http.StatusOK
		if !h.Ready {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})

	mux.HandleFunc("GET /metricz", func(w http.ResponseWriter, r *http.Request) {
		format, err := metricsFormat(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotAcceptable)
			return
		}
		snap := obs.Snapshot{}
		if s.cfg.Metrics != nil {
			snap = s.cfg.Metrics.Snapshot()
		}
		if format == "prom" {
			w.Header().Set("Content-Type", obs.PromContentType)
			_ = snap.WriteProm(w)
			return
		}
		b, err := snap.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})

	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
