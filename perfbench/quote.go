package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// quoteDays is the history the server is warmed with before serving:
// the paper's two-month window.
const quoteDays = 61

// nowMicros is the wall clock spotbidd hands the server and handler.
func nowMicros() int64 { return time.Now().UnixMicro() }

// quoteServer is a server built as cmd/spotbidd builds it (obs registry
// on, wall-clock NowMicros, default window and grids, all five Table 3
// types), warmed with quoteDays of seeded prices and one table build.
// The one difference: admission buckets are sized so the closed loop
// is never shed.
type quoteServer struct {
	srv   *serve.Server
	slots int
}

// buildQuoteServer builds and warms the server. With a tracer, each
// stage is a span under root.
func buildQuoteServer(seed int64, t *tracer, root int32) (*quoteServer, error) {
	step := func(name string, fn func() error) error {
		if t == nil {
			return fn()
		}
		return t.do(root, name, fn)
	}
	types := instances.Table3Types()
	feeds := make([]*trace.Trace, len(types))
	err := step("trace.generate", func() error {
		for i, typ := range types {
			tr, err := trace.Generate(typ, trace.GenOptions{Days: quoteDays, Seed: seed})
			if err != nil {
				return err
			}
			feeds[i] = tr
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var srv *serve.Server
	err = step("serve.new", func() (err error) {
		unlimited := [serve.NumClasses]float64{1e12, 1e12, 1e12}
		srv, err = serve.New(serve.Config{
			Types:     types,
			Metrics:   obs.New(),
			NowMicros: nowMicros,
			Admission: serve.AdmitConfig{RatePerSec: unlimited, Burst: unlimited},
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	keys := make([]serve.Key, len(types))
	for i, typ := range types {
		keys[i] = serve.Key{Region: "us-east-1", Type: typ}
	}
	q := &quoteServer{srv: srv, slots: feeds[0].Len()}
	err = step("serve.ingest", func() error {
		for slot := 0; slot < q.slots; slot++ {
			srv.SetSlot(slot)
			for i, key := range keys {
				if err := srv.Ingest(key, slot, feeds[i].At(slot)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The first slot past the history is on the rebuild cadence (61
	// days is a whole number of hours), so one build lands and every
	// table is fresh for as long as the clock stays there.
	err = step("serve.rebuild", func() error {
		srv.SetSlot(q.slots)
		srv.MaybeRebuild(q.slots)
		for _, key := range keys {
			if srv.Table(key) == nil {
				return fmt.Errorf("no table built for %s", key)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return q, nil
}

// quoteReq is one request of the cycled list, with the answer the
// server's own table gives for it.
type quoteReq struct {
	path   string
	vals   url.Values
	key    serve.Key
	status int
	want   []byte // a fragment the response body must contain
}

// quoteRequests enumerates type × exec grid × {one-time, each recovery
// grid value} × class — every valid cell, so the list touches the
// whole table — in a seeded order. A recovery at or beyond the
// execution time is not a valid job and is left out. Eq. 14 refusals
// (422) are correct answers and stay in.
func quoteRequests(srv *serve.Server, seed int64) ([]quoteReq, error) {
	execGrid := []float64{0.5, 1, 2, 4, 8, 12, 24}
	recGrid := []float64{0, 30, 60, 120, 300, 600, 1800}
	classes := []string{"interactive", "standard", "batch"}
	var out []quoteReq
	for _, key := range srv.Keys() {
		tbl := srv.Table(key)
		for _, exec := range execGrid {
			for _, rec := range recGrid {
				if rec/3600 >= exec {
					continue
				}
				q, _, _ := tbl.Resolve(exec, rec/3600)
				r := quoteReq{key: key, status: http.StatusUnprocessableEntity,
					want: []byte(`"outcome":"refused_infeasible"`)}
				if q.Feasible {
					js, err := json.Marshal(q)
					if err != nil {
						return nil, err
					}
					r.status, r.want = http.StatusOK, append([]byte(`"quote":`), js...)
				}
				for _, c := range classes {
					r := r
					r.vals = url.Values{}
					r.vals.Set("type", string(key.Type))
					r.vals.Set("exec_hours", strconv.FormatFloat(exec, 'g', -1, 64))
					r.vals.Set("class", c)
					if rec > 0 {
						r.vals.Set("recovery_seconds", strconv.FormatFloat(rec, 'g', -1, 64))
					}
					r.path = "/v1/quote?" + r.vals.Encode()
					out = append(out, r)
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// httpRig is the served handler plus one keep-alive client per loop
// goroutine.
type httpRig struct {
	base    string
	hs      *http.Server
	done    chan error
	clients []*http.Client
}

func startRig(srv *serve.Server) (*httpRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &httpRig{base: "http://" + ln.Addr().String(), done: make(chan error, 1),
		hs: &http.Server{Handler: serve.NewHandler(srv, nowMicros)}}
	go func() { r.done <- r.hs.Serve(ln) }()
	for i := 0; i < nproc; i++ {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return r, nil
}

// stop closes the clients' connections, shuts the server down and
// waits for it to exit.
func (r *httpRig) stop() error {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-r.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// roundtrip sends one request, reads the whole body into buf and
// checks the status and body against the table's answer.
func roundtrip(c *http.Client, base string, q *quoteReq, buf *bytes.Buffer) error {
	resp, err := c.Get(base + q.path)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != q.status {
		return fmt.Errorf("%s: status %d, want %d: %s", q.path, resp.StatusCode, q.status, buf.Bytes())
	}
	if !bytes.Contains(buf.Bytes(), q.want) {
		return fmt.Errorf("%s: body %s lacks %s", q.path, buf.Bytes(), q.want)
	}
	return nil
}

// loopStats counts what the closed loop attempted.
type loopStats struct {
	attempted int
	failed    int
	firstErr  error
}

func (s *loopStats) merge(o loopStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// latencyBuf holds per-request latencies in a fixed, preallocated and
// pre-touched buffer, one region per loop goroutine, so the benchmark's
// own bookkeeping adds the same resident memory to every run however
// many requests it completes. A region that fills keeps a uniform
// reservoir sample.
type latencyBuf struct {
	ns   []uint32 // nanoseconds, saturating; region g is ns[g*per:(g+1)*per]
	per  int
	seen []int // requests recorded per region
	rng  []*rand.Rand
}

// latencyRegion is each goroutine's sample capacity: more than a
// 30-second run at the reference VM's ~35k requests per second.
const latencyRegion = 1 << 20

func newLatencyBuf(goroutines int) *latencyBuf {
	b := &latencyBuf{ns: make([]uint32, goroutines*latencyRegion), per: latencyRegion,
		seen: make([]int, goroutines)}
	for i := range b.ns {
		b.ns[i] = 1 // touch every page now, not as the run fills them
	}
	for g := 0; g < goroutines; g++ {
		b.rng = append(b.rng, rand.New(rand.NewSource(int64(g))))
	}
	return b
}

func (b *latencyBuf) add(g int, d time.Duration) {
	v := uint32(min(d.Nanoseconds(), math.MaxUint32))
	i := b.seen[g]
	b.seen[g]++
	if i >= b.per {
		if i = b.rng[g].Intn(i + 1); i >= b.per {
			return
		}
	}
	b.ns[g*b.per+i] = v
}

// sorted compacts the regions' samples to the front of the buffer,
// sorts them in place and returns them with the number of requests
// they stand for. The buffer is spent afterwards.
func (b *latencyBuf) sorted() ([]uint32, int) {
	n, total := 0, 0
	for g, seen := range b.seen {
		kept := min(seen, b.per)
		n += copy(b.ns[n:], b.ns[g*b.per:g*b.per+kept])
		total += seen
	}
	s := b.ns[:n]
	slices.Sort(s)
	return s, total
}

// quantileSorted is quantile over sorted nanosecond samples, in
// microseconds.
func quantileSorted(s []uint32, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return float64(s[len(s)-1]) / 1e3
	}
	return (float64(s[lo]) + (pos-float64(lo))*float64(s[lo+1]-s[lo])) / 1e3
}

// closedLoop runs one goroutine per client until deadline; each sends
// its next request only after the previous one completed, cycling the
// list from its own offset, and records each checked request's
// latency in lat. after, when non-nil, runs after each
// checked request on the loop's goroutine (the traced run's beside
// measurements) and is not part of the request's time.
func closedLoop(rig *httpRig, reqs []quoteReq, deadline time.Time, lat *latencyBuf, after func(g int, q *quoteReq, rt time.Duration)) loopStats {
	stats := make([]loopStats, len(rig.clients))
	var wg sync.WaitGroup
	for g, c := range rig.clients {
		wg.Add(1)
		go func(g int, c *http.Client) {
			defer wg.Done()
			st := &stats[g]
			var buf bytes.Buffer
			for i := g * len(reqs) / len(rig.clients); time.Now().Before(deadline); i++ {
				q := &reqs[i%len(reqs)]
				st.attempted++
				start := time.Now()
				err := roundtrip(c, rig.base, q, &buf)
				el := time.Since(start)
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				lat.add(g, el)
				if after != nil {
					after(g, q, el)
				}
			}
		}(g, c)
	}
	wg.Wait()
	var all loopStats
	for _, s := range stats {
		all.merge(s)
	}
	return all
}

func measureQuote(seed int64, d time.Duration) (*outcome, error) {
	var q *quoteServer
	setups, err := repeatSetup(func() (err error) {
		q, err = buildQuoteServer(seed, nil, -1)
		return err
	})
	if err != nil {
		return nil, err
	}
	reqs, err := quoteRequests(q.srv, seed)
	if err != nil {
		return nil, err
	}
	rig, err := startRig(q.srv)
	if err != nil {
		return nil, err
	}
	lat := newLatencyBuf(len(rig.clients))
	runtimeStart := readRuntime()
	start := time.Now()
	st := closedLoop(rig, reqs, start.Add(d), lat, nil)
	wall := time.Since(start)
	rtDelta := readRuntime().sub(runtimeStart)
	if err := rig.stop(); err != nil {
		return nil, err
	}
	if st.firstErr != nil {
		fmt.Printf("  first failure: %v\n", st.firstErr)
	}
	sorted, n := lat.sorted()
	o := &outcome{attempted: st.attempted, failed: st.failed}
	addSetup(o, setups)
	o.add("ops_per_s", float64(n)/wall.Seconds(), "1/s", n)
	o.add("latency_ms_p50", quantileSorted(sorted, 0.5)/1e3, "ms", n)
	o.add("latency_ms_p90", quantileSorted(sorted, 0.9)/1e3, "ms", n)
	fmt.Printf("  %d requests cycled from a list of %d; %.3f GC cycles and %.0f bytes allocated per request\n",
		st.attempted, len(reqs), float64(rtDelta.gcs)/float64(max(st.attempted, 1)),
		float64(rtDelta.bytes)/float64(max(st.attempted, 1)))
	return o, nil
}

// errorBody mirrors the handler's non-200 response document, so the
// traced run encodes what writeJSON encodes.
type errorBody struct {
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	Slot    int    `json:"slot"`
}

// besideSums accumulates one loop goroutine's beside timings.
type besideSums struct {
	n, errs                            int
	rt, decode, quote, resolve, encode time.Duration
	spans                              []span
}

// traceQuote is the traced quote run. The set-up runs once with spans
// (serve.ingest_us, serve.rebuild_ms, trace.generate_ms). The loop then
// alternates one-second phases: untraced (tracing-off round trips and
// runtime counters) and traced, where after each round trip its parts
// are timed on the same inputs beside it — DecodeQuoteRequest,
// Server.Quote and QuoteTable.Resolve on a twin server built the same
// way (so the HTTP server's ledger counts only HTTP requests), and the
// response's JSON encoding as the handler's writeJSON does it. The
// HTTP edge is the mean round trip minus the mean decode, quote and
// encode, so the parts add up to the round trip.
func traceQuote(seed int64, d time.Duration) (*outcome, error) {
	out := &outcome{}
	t := newTracer()
	freshState()
	root := t.startOp()
	q, err := buildQuoteServer(seed, t, root)
	if err != nil {
		return nil, err
	}
	setupWall, setupSpans, _ := t.finishOp(root)
	for _, s := range setupSpans {
		ms := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case "trace.generate":
			out.add("trace.generate_ms", ms, "ms", 1)
		case "serve.ingest":
			out.add("serve.ingest_us", ms*1e3/float64(q.slots), "us", q.slots)
		case "serve.rebuild":
			out.add("serve.rebuild_ms", ms, "ms", 1)
		}
	}
	hits, misses := trace.MemoStats()
	out.add("trace.generate_calls", float64(misses), "count", 1)
	out.add("trace.memo_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio", 1)
	fmt.Printf("  set-up (traced): %.1f ms\n", float64(setupWall.Nanoseconds())/1e6)

	twin, err := buildQuoteServer(seed, nil, -1)
	if err != nil {
		return nil, err
	}
	reqs, err := quoteRequests(q.srv, seed)
	if err != nil {
		return nil, err
	}
	rig, err := startRig(q.srv)
	if err != nil {
		return nil, err
	}
	sums := make([]besideSums, len(rig.clients))
	encs := make([]bytes.Buffer, len(rig.clients))
	epoch := time.Now()
	after := func(g int, r *quoteReq, rt time.Duration) {
		s := &sums[g]
		rtEnd := time.Since(epoch).Nanoseconds()
		t0 := time.Now()
		req, err := serve.DecodeQuoteRequest(r.vals, nowMicros())
		t1 := time.Now()
		if err != nil {
			s.errs++
			return
		}
		resp, outc := twin.srv.Quote(req)
		t2 := time.Now()
		tbl := twin.srv.Table(r.key)
		tbl.Resolve(req.ExecHours, req.RecoverySeconds/3600)
		t3 := time.Now()
		var v any = resp
		if !outc.Served() {
			v = errorBody{Outcome: outc.String(), Slot: twin.srv.Slot()}
		}
		b := &encs[g]
		b.Reset()
		e := json.NewEncoder(b)
		e.SetEscapeHTML(false)
		_ = e.Encode(v)
		t4 := time.Now()
		s.n++
		s.rt += rt
		s.decode += t1.Sub(t0)
		s.quote += t2.Sub(t1)
		s.resolve += t3.Sub(t2)
		s.encode += t4.Sub(t3)
		if len(s.spans) < maxKeptSpans/len(sums) {
			op := int32(g + len(sums)*s.n)
			at := func(x time.Time) int64 { return x.Sub(epoch).Nanoseconds() }
			s.spans = append(s.spans,
				span{Op: op, ID: 0, Parent: -1, Name: "op", Start: rtEnd - rt.Nanoseconds(), End: rtEnd},
				span{Op: op, ID: 1, Parent: 0, Name: "serve.decode", Start: at(t0), End: at(t1)},
				span{Op: op, ID: 2, Parent: 0, Name: "serve.quote", Start: at(t1), End: at(t2)},
				span{Op: op, ID: 3, Parent: 0, Name: "serve.resolve", Start: at(t2), End: at(t3)},
				span{Op: op, ID: 4, Parent: 0, Name: "serve.encode", Start: at(t3), End: at(t4)})
		}
	}

	var plain, traced loopStats
	plainLat, tracedLat := newLatencyBuf(len(rig.clients)), newLatencyBuf(len(rig.clients))
	var rt rtTotals
	deadline := time.Now().Add(d)
	for phase := 0; time.Now().Before(deadline); phase++ {
		end := time.Now().Add(time.Second)
		if end.After(deadline) {
			end = deadline
		}
		if phase%2 == 0 {
			rt0 := readRuntime()
			st := closedLoop(rig, reqs, end, plainLat, nil)
			delta := readRuntime().sub(rt0)
			rt.ops += st.attempted
			rt.sum.gcs += delta.gcs
			rt.sum.bytes += delta.bytes
			rt.sum.objects += delta.objects
			plain.merge(st)
		} else {
			traced.merge(closedLoop(rig, reqs, end, tracedLat, after))
		}
	}
	if err := rig.stop(); err != nil {
		return nil, err
	}
	for _, st := range []loopStats{plain, traced} {
		out.attempted += st.attempted
		out.failed += st.failed
		if st.firstErr != nil {
			fmt.Printf("  first failure: %v\n", st.firstErr)
		}
	}

	var tot besideSums
	for _, s := range sums {
		tot.n += s.n
		tot.errs += s.errs
		tot.rt += s.rt
		tot.decode += s.decode
		tot.quote += s.quote
		tot.resolve += s.resolve
		tot.encode += s.encode
		t.kept = append(t.kept, s.spans...)
	}
	if tot.errs > 0 {
		out.failf("DecodeQuoteRequest failed on %d requests the server answered", tot.errs)
	}
	n := float64(max(tot.n, 1))
	us := func(x time.Duration) float64 { return float64(x.Nanoseconds()) / 1e3 / n }
	edge := us(tot.rt) - us(tot.decode) - us(tot.quote) - us(tot.encode)
	out.add("serve.decode_us", us(tot.decode), "us", tot.n)
	out.add("serve.quote_us", us(tot.quote), "us", tot.n)
	out.add("serve.resolve_us", us(tot.resolve), "us", tot.n)
	out.add("serve.encode_us", us(tot.encode), "us", tot.n)
	out.add("serve.http_edge_us", edge, "us", tot.n)
	fmt.Printf("  attribution: decode %.3f + quote %.3f + encode %.3f + http edge %.3f = mean round trip %.3f µs\n",
		us(tot.decode), us(tot.quote), us(tot.encode), edge, us(tot.rt))
	tracedUs, nTraced := tracedLat.sorted()
	plainUs, nPlain := plainLat.sorted()
	out.add("serve.http_roundtrip_us_p50", quantileSorted(tracedUs, 0.5), "us", nTraced)
	out.add("serve.http_roundtrip_us_p99", quantileSorted(tracedUs, 0.99), "us", nTraced)
	out.add("op.traced_ms", us(tot.rt)/1e3, "ms", tot.n)
	out.add("op.unattributed_ms", edge/1e3, "ms", tot.n)
	out.add("op.untraced_ms", quantileSorted(plainUs, 0.5)/1e3, "ms", nPlain)
	out.add("op.tracing_overhead_ms", (quantileSorted(tracedUs, 0.5)-quantileSorted(plainUs, 0.5))/1e3, "ms", nTraced)

	counts := q.srv.Audit().Counts()
	var total, shed uint64
	for o := serve.Outcome(0); o < serve.NumOutcomes; o++ {
		out.add("serve.outcome."+o.String(), float64(counts[o]), "count", 0)
		total += counts[o]
	}
	shed = counts[serve.OutcomeShedCapacity] + counts[serve.OutcomeShedDeadline]
	if total > 0 {
		out.add("serve.shed_ratio", float64(shed)/float64(total), "ratio", int(total))
	}
	if int(total) != out.attempted {
		out.failf("the server's ledger counts %d requests, the clients sent %d", total, out.attempted)
	}
	rt.report(out)
	return out, t.writeSpans(spanOut)
}
