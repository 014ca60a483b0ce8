// Command experiments regenerates every table and figure of the
// paper's evaluation (the data behind EXPERIMENTS.md).
//
// Usage:
//
//	experiments                  # everything, paper-scale (10 runs)
//	experiments -only fig5,fig6  # a subset
//	experiments -runs 3          # faster sweeps
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/obs/tsdb"
)

// sectionKeys are the -only keys, in run order.
var sectionKeys = []string{"fig3", "table3", "fig4", "fig5", "fig6", "mapreduce", "stability",
	"forecast", "chaos", "tournament", "failover", "serve", "ablations"}

func main() {
	var (
		seed        = flag.Int64("seed", 1, "experiment seed")
		runs        = flag.Int("runs", 10, "repetitions per configuration (the paper uses 10)")
		only        = flag.String("only", "", "comma-separated subset: "+strings.Join(sectionKeys, ","))
		metrics     = flag.Bool("metrics", false, "print an aggregated metrics snapshot after the experiments")
		metricsJSON = flag.Bool("metrics-json", false, "print the metrics snapshot as JSON instead of a table (implies -metrics)")
		traceOn     = flag.Bool("trace", false, "record a flight-recorder event trace of run 0 of each sweep cell")
		traceOut    = flag.String("trace-out", "", "write the trace to this file (default stdout; implies -trace)")
		traceFormat = flag.String("trace-format", "jsonl", "trace export format: jsonl, chrome, or timeline (implies -trace)")
		tsdbOut     = flag.String("tsdb-out", "", "scrape run 0 of each sweep cell into a time-series store and dump it to this file (.csv for CSV, anything else JSONL)")
		scrapeEvery = flag.Int("scrape-every", 0, "tsdb scrape cadence in slots (0 = per-experiment default)")
	)
	flag.Parse()
	export, err := event.Exporter(*traceFormat)
	if err != nil {
		fatalf("-trace-format: %v", err)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !slices.Contains(sectionKeys, k) {
				fatalf("-only: unknown section %q (known: %s)", k, strings.Join(sectionKeys, ","))
			}
			want[k] = true
		}
	}
	opts := experiments.Opts{Seed: *seed, Runs: *runs, ScrapeEvery: *scrapeEvery}
	if *metrics || *metricsJSON {
		opts.Metrics = obs.New()
	}
	if *traceOn || *traceOut != "" || isFlagSet("trace-format") {
		// Unbounded: an experiment export wants the whole stream, not
		// the flight recorder's overwrite-oldest window.
		opts.Trace = event.NewRecorder(event.Config{Unbounded: true})
	}
	if *tsdbOut != "" {
		opts.TSDB = tsdb.New(tsdb.Config{})
	}

	// Interrupt-safe metrics flush: a metered run that is cut short
	// (^C on a long sweep) still reports everything aggregated so far
	// before exiting, instead of dropping the whole snapshot.
	if opts.Metrics != nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sig
			fmt.Fprintf(os.Stderr, "\n== Metrics (interrupted by %v, partial)\n\n%s\n",
				s, opts.Metrics.Snapshot().Render())
			os.Exit(130)
		}()
	}

	sel := func(k string) bool { return len(want) == 0 || want[k] }

	if sel("fig3") {
		section("Figure 3 — spot-price PDFs and provider-model fits (§4.3)", func() (interface{ Render() string }, error) {
			return experiments.Figure3(opts)
		})
	}
	if sel("table3") {
		section("Table 3 — optimal bid prices, one-hour job (§7.1)", func() (interface{ Render() string }, error) {
			return experiments.Table3(opts)
		})
	}
	if sel("fig4") {
		section("Figure 4 — example persistent-job timeline", func() (interface{ Render() string }, error) {
			return experiments.Figure4(opts)
		})
	}
	if sel("fig5") {
		section("Figure 5 — one-time spot vs on-demand cost (§7.1)", func() (interface{ Render() string }, error) {
			return experiments.Figure5(opts)
		})
	}
	if sel("fig6") {
		section("Figure 6 — persistent vs one-time (§7.1)", func() (interface{ Render() string }, error) {
			return experiments.Figure6(opts)
		})
	}
	if sel("mapreduce") {
		start := time.Now()
		t4, f7, err := experiments.MapReduceEval(opts)
		if err != nil {
			fatalf("mapreduce: %v", err)
		}
		fmt.Printf("== Table 4 — MapReduce client settings (§7.2) [%.1fs]\n\n%s\n", time.Since(start).Seconds(), t4.Render())
		fmt.Printf("== Figure 7 — MapReduce spot vs on-demand (§7.2)\n\n%s\n", f7.Render())
	}
	if sel("stability") {
		section("Stability — Prop. 1/2 queue validation (§4.2)", func() (interface{ Render() string }, error) {
			return experiments.Stability(opts)
		})
	}
	if sel("forecast") {
		section("Forecasting — §5's horizon check", func() (interface{ Render() string }, error) {
			return experiments.ForecastEval(opts)
		})
	}
	if sel("chaos") {
		section("Chaos — strategy degradation under injected faults", func() (interface{ Render() string }, error) {
			return experiments.ChaosSweep(opts)
		})
	}
	if sel("tournament") {
		section("Tournament — strategy league across the chaos grid", func() (interface{ Render() string }, error) {
			return experiments.Tournament(opts)
		})
	}
	if sel("failover") {
		section("Failover — multi-region fleet vs home-region outages", func() (interface{ Render() string }, error) {
			return experiments.FailoverSweep(opts)
		})
	}
	if sel("serve") {
		section("Serving — control-plane chaos drill (degrade, shed, recover)", func() (interface{ Render() string }, error) {
			return experiments.ServeDrillRun(opts)
		})
	}
	if sel("ablations") {
		section("Ablation — provider utilization weight β (§4.1)", func() (interface{ Render() string }, error) {
			return experiments.AblationBeta(opts)
		})
		section("Ablation — recovery time t_r across the Eq. 14 boundary", func() (interface{ Render() string }, error) {
			return experiments.AblationRecovery(opts)
		})
		section("Ablation — price stickiness vs one-time reliability (DESIGN.md)", func() (interface{ Render() string }, error) {
			return experiments.AblationDwell(opts)
		})
		section("Ablation — worker count M and the §6.1 crossovers", func() (interface{ Render() string }, error) {
			return experiments.AblationWorkers(opts)
		})
		section("Ablation — collective bidding feedback (§8)", func() (interface{ Render() string }, error) {
			return experiments.AblationCollective(opts)
		})
		section("Ablation — billing model (paper's per-slot vs Amazon's hourly)", func() (interface{ Render() string }, error) {
			return experiments.AblationBilling(opts)
		})
	}
	if opts.Metrics != nil {
		snap := opts.Metrics.Snapshot()
		if *metricsJSON {
			js, err := snap.JSON()
			if err != nil {
				fatalf("rendering metrics JSON: %v", err)
			}
			fmt.Printf("== Metrics (JSON)\n\n%s\n", js)
		} else {
			fmt.Printf("== Metrics\n\n%s\n", snap.Render())
		}
	}
	if opts.Trace != nil {
		if err := exportTrace(opts.Trace, *traceOut, *traceFormat, export); err != nil {
			fatalf("exporting trace: %v", err)
		}
	}
	if opts.TSDB != nil {
		if err := exportTSDB(opts.TSDB, *tsdbOut); err != nil {
			fatalf("exporting tsdb: %v", err)
		}
	}
}

// exportTSDB dumps the scraped store: CSV when the filename says so,
// JSONL otherwise.
func exportTSDB(db *tsdb.DB, out string) error {
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

// exportTrace writes the recorded trace with the format's exporter, to
// the named file or stdout.
func exportTrace(rec *event.Recorder, out, format string, export func(*event.Recorder, io.Writer) error) error {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	} else {
		fmt.Printf("== Trace (%s, %d events)\n\n", format, rec.Len())
	}
	return export(rec, w)
}

// isFlagSet reports whether the named flag was given explicitly.
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func section(title string, run func() (interface{ Render() string }, error)) {
	start := time.Now()
	res, err := run()
	if err != nil {
		fatalf("%s: %v", title, err)
	}
	fmt.Printf("== %s [%.1fs]\n\n%s\n", title, time.Since(start).Seconds(), res.Render())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
