// Command spotbidd is the bid-advisory daemon: the degradation-aware
// control plane of internal/serve wrapped in a real HTTP server with a
// real clock. It answers "what should I bid for this job on this
// instance type" from versioned quote tables that a background
// pipeline rebuilds as market data arrives, and it degrades honestly —
// stale tables are served with their explicit age and a warning, dead
// tables and Eq. 14-infeasible jobs are refused, overload is shed by
// priority class, and SIGINT/SIGTERM drains gracefully: in-flight
// requests finish, new ones are refused, the metrics snapshot and the
// request ledger are flushed, and the process exits 0.
//
// The market feed is the repository's seeded synthetic trace (there is
// no live AWS feed to subscribe to), replayed on a wall-clock ticker —
// one 300-second slot every 300/accel seconds, so -accel 300 compresses
// a slot into a second for demos. Everything above the feed is the
// production path: the same Server, handler, admission control, and
// staleness ladder the chaos drill verifies.
//
// Endpoints:
//
//	GET /v1/quote?type=r3.xlarge&exec_hours=4[&recovery_seconds=600][&class=batch][&budget_micros=…]
//	GET /healthz   liveness (503 while draining)
//	GET /readyz    readiness: per-market tier, age, version, stall flag
//	GET /metricz   metrics snapshot: JSON, or Prometheus text via
//	               ?format=prom / an Accept: text/plain header
//
// With -tsdb-out the daemon also scrapes its own registry into an
// in-process time-series store every -scrape-every slots, evaluates
// the serve.DefaultSLOs burn-rate alerts on each scrape (transitions
// log to stderr), and dumps the store on drain — the file spotbidtop
// replays.
//
// Usage:
//
//	spotbidd -addr :8372 -types r3.xlarge,c3.large -accel 300
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", ":8372", "listen address (host:port; port 0 picks a free port)")
		region      = flag.String("region", "us-east-1", "region label for quote keys")
		types       = flag.String("types", "r3.xlarge", "comma-separated instance types to serve")
		seed        = flag.Int64("seed", 1, "seed for the synthetic market feed")
		days        = flag.Int("days", 70, "synthetic feed length in days (replayed cyclically)")
		accel       = flag.Float64("accel", 1, "time compression: slots per 300 wall seconds")
		warmup      = flag.Int("warmup", 288, "slots of history ingested before serving starts")
		tsdbOut     = flag.String("tsdb-out", "", "scrape metrics into a time-series store and dump it here on drain (.csv for CSV, anything else JSONL)")
		scrapeEvery = flag.Int("scrape-every", 4, "tsdb scrape cadence in slots (with -tsdb-out)")
	)
	flag.Parse()
	if err := run(*addr, *region, *types, *seed, *days, *accel, *warmup, *tsdbOut, *scrapeEvery); err != nil {
		fmt.Fprintf(os.Stderr, "spotbidd: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, region, typeList string, seed int64, days int, accel float64, warmup int, tsdbOut string, scrapeEvery int) error {
	if accel <= 0 {
		return fmt.Errorf("-accel must be positive, got %v", accel)
	}
	var typs []instances.Type
	for _, s := range strings.Split(typeList, ",") {
		typs = append(typs, instances.Type(strings.TrimSpace(s)))
	}

	nowMicros := func() int64 { return time.Now().UnixMicro() }
	metrics := obs.New()
	srv, err := serve.New(serve.Config{
		Region:    region,
		Types:     typs,
		Metrics:   metrics,
		NowMicros: nowMicros,
	})
	if err != nil {
		return err
	}

	feeds := map[serve.Key]*trace.Trace{}
	for _, key := range srv.Keys() {
		tr, err := trace.Generate(key.Type, trace.GenOptions{Days: days, Seed: seed})
		if err != nil {
			return err
		}
		feeds[key] = tr
	}
	// The observability plane (with -tsdb-out): scrape the registry on
	// a slot cadence and run the shared SLO set; alert transitions log
	// to stderr as they happen, the store dumps on drain.
	var (
		db      *tsdb.DB
		scraper *tsdb.Scraper
		engine  *tsdb.Engine
	)
	if tsdbOut != "" {
		db = tsdb.New(tsdb.Config{})
		scraper = tsdb.NewScraper(db, tsdb.ScrapeConfig{
			Registry: metrics,
			Every:    scrapeEvery,
			Labels:   tsdb.L("region", region),
		})
		engine, err = tsdb.NewEngine(db, nil, serve.DefaultSLOs()...)
		if err != nil {
			return err
		}
	}

	ingest := func(slot int) error {
		srv.SetSlot(slot)
		for key, tr := range feeds {
			if err := srv.Ingest(key, slot, tr.At(slot%tr.Len())); err != nil {
				return err
			}
		}
		srv.MaybeRebuild(slot)
		if scraper != nil && scraper.Tick(slot) {
			for _, a := range engine.Eval(slot) {
				fmt.Fprintf(os.Stderr, "spotbidd: SLO %s\n", a)
			}
		}
		return nil
	}

	// Warm the window through history so the daemon is ready (fresh
	// tables for every market) the moment it starts listening. The
	// window can reach MinSamples between two rebuild slots, as the
	// default warm-up's does at slot 287, so a warm-up that ends with
	// a market still cold runs on to the next rebuild slot: at most
	// RebuildEvery − 1 more slots.
	slot := 0
	for ; slot < warmup || (slot < warmup+srv.RebuildEvery()-1 && !srv.Health().Ready); slot++ {
		if err := ingest(slot); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Catch SIGINT/SIGTERM before announcing the address, so a signal
	// sent by anyone who saw the announcement drains instead of
	// killing the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "spotbidd: listening on %s (%d markets, slot every %s)\n",
		ln.Addr(), len(feeds), slotInterval(srv, accel))

	hs := newHTTPServer(serve.NewHandler(srv, nowMicros))
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// The feed ticker: one slot per interval, for as long as the
	// daemon lives. The quote path never blocks on it — readers see
	// whatever table was last swapped in, aging through the ladder if
	// this loop stalls.
	tick := time.NewTicker(slotInterval(srv, accel))
	defer tick.Stop()
	tickErr := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := ingest(slot); err != nil {
					tickErr <- err
					return
				}
				slot++
			}
		}
	}()

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "spotbidd: %v, draining\n", s)
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case err := <-tickErr:
		return fmt.Errorf("market feed: %w", err)
	}

	// Graceful drain: stop the feed, refuse new quotes (healthz goes
	// 503 so load balancers stop sending), let in-flight requests
	// finish, then flush the ledger and the metrics snapshot.
	close(stop)
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}

	audit := srv.Audit()
	counts := audit.Counts()
	fmt.Fprintf(os.Stderr, "spotbidd: served %d requests:", audit.Total())
	for o := serve.Outcome(0); o < serve.NumOutcomes; o++ {
		if counts[o] > 0 {
			fmt.Fprintf(os.Stderr, " %s=%d", o, counts[o])
		}
	}
	fmt.Fprintln(os.Stderr)
	fmt.Fprintf(os.Stderr, "== Metrics\n%s", metrics.Snapshot().Render())
	if db != nil {
		if err := dumpTSDB(db, tsdbOut); err != nil {
			return fmt.Errorf("dumping tsdb: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spotbidd: dumped %d series (%d scrapes, %d SLO transitions) to %s\n",
			db.NumSeries(), scraper.Scrapes(), len(engine.Alerts()), tsdbOut)
	}
	fmt.Fprintln(os.Stderr, "spotbidd: bye")
	return nil
}

// The HTTP limits. Every endpoint takes a short GET with a few query
// parameters and answers with one small document, and none of them
// streams, so an honest request needs well under a second per phase.
// The limits cut off a client that holds a connection without
// finishing its request, or keeps one idle, before it can pile up
// connections outside admission control.
const (
	// readHeaderTimeout bounds the request line and headers.
	readHeaderTimeout = 2 * time.Second
	// readTimeout bounds the whole request, body included.
	readTimeout = 5 * time.Second
	// writeTimeout bounds the response, from the end of the header
	// read to the last byte written.
	writeTimeout = 10 * time.Second
	// idleTimeout bounds a keep-alive connection between requests.
	idleTimeout = 60 * time.Second
	// maxHeaderBytes bounds the request line and headers: a quote URL
	// is about a hundred bytes.
	maxHeaderBytes = 8 << 10
)

// newHTTPServer wraps the handler in the daemon's HTTP server with its
// limits.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// dumpTSDB writes the store: CSV when the filename says so, JSONL
// otherwise.
func dumpTSDB(db *tsdb.DB, out string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(out, ".csv") {
		return db.WriteCSV(f)
	}
	return db.WriteJSONL(f)
}

// slotInterval converts the server's 300-second logical slot into the
// wall interval at the configured acceleration.
func slotInterval(srv *serve.Server, accel float64) time.Duration {
	return time.Duration(float64(srv.SlotMicros())/accel) * time.Microsecond
}
