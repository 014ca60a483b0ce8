// Command spotsim generates calibrated synthetic spot-price histories
// — the replacement for downloading Amazon's two-month
// DescribeSpotPriceHistory window (see DESIGN.md) — and prints either
// the AWS-style CSV or a statistical summary.
//
// Usage:
//
//	spotsim -type r3.xlarge -days 61 -seed 1 > history.csv
//	spotsim -type r3.xlarge -summary
//	spotsim -type r3.xlarge -dynamics full -summary
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/trace"
)

func main() {
	var (
		typ      = flag.String("type", "r3.xlarge", "instance type (see -list)")
		days     = flag.Int("days", 61, "trace length in days")
		seed     = flag.Int64("seed", 1, "generator seed")
		dwell    = flag.Int("dwell", 0, "mean price dwell in slots (0 = default 18, 1 = i.i.d.)")
		dynamics = flag.String("dynamics", "equilibrium", "price model: equilibrium | full")
		diurnal  = flag.Float64("diurnal", 0, "diurnal arrival modulation amplitude in [0,1)")
		summary  = flag.Bool("summary", false, "print a statistical summary instead of CSV")
		metrics  = flag.Bool("metrics", false, "print a generation metrics snapshot to stderr (keeps stdout CSV-clean)")
		list     = flag.Bool("list", false, "list calibrated instance types and exit")

		traceOn     = flag.Bool("trace", false, "record a PriceSet event trace of the generation (stderr unless -trace-out)")
		traceOut    = flag.String("trace-out", "", "write the event trace to this file (implies -trace)")
		traceFormat = flag.String("trace-format", "jsonl", "event-trace format: jsonl, chrome, or timeline (implies -trace)")
	)
	flag.Parse()
	export, err := event.Exporter(*traceFormat)
	if err != nil {
		fatalf("-trace-format: %v", err)
	}

	if *list {
		fmt.Println("type          vCPU  mem(GiB)  SSD      on-demand($/h)")
		for _, s := range instances.All() {
			fmt.Printf("%-13s %4d  %8g  %-7s  %.3f\n", s.Type, s.VCPU, s.MemGiB, s.SSD, s.OnDemand)
		}
		return
	}

	opts := trace.GenOptions{
		Days:             *days,
		Seed:             *seed,
		DwellSlots:       *dwell,
		FullDynamics:     *dynamics == "full",
		DiurnalAmplitude: *diurnal,
	}
	if *metrics {
		opts.Metrics = obs.New()
	}
	traceFormatSet := false
	flag.Visit(func(f *flag.Flag) { traceFormatSet = traceFormatSet || f.Name == "trace-format" })
	if *traceOn || *traceOut != "" || traceFormatSet {
		opts.Trace = event.NewRecorder()
	}
	if *dynamics != "full" && *dynamics != "equilibrium" {
		fatalf("unknown -dynamics %q (want equilibrium or full)", *dynamics)
	}
	tr, err := trace.Generate(instances.Type(*typ), opts)
	if err != nil {
		fatalf("%v", err)
	}

	if *summary {
		printSummary(tr)
	} else if err := tr.WriteCSV(os.Stdout); err != nil {
		fatalf("writing CSV: %v", err)
	}
	if opts.Metrics != nil {
		fmt.Fprintf(os.Stderr, "== Metrics\n\n%s", opts.Metrics.Snapshot().Render())
	}
	if opts.Trace != nil {
		// Stderr by default, like -metrics: stdout stays CSV-clean.
		w := os.Stderr
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatalf("creating trace file: %v", err)
			}
			defer f.Close()
			w = f
		}
		if err := export(opts.Trace, w); err != nil {
			fatalf("writing trace: %v", err)
		}
	}
}

func printSummary(tr *trace.Trace) {
	s, err := tr.Summarize()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Print(s)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spotsim: "+format+"\n", args...)
	os.Exit(1)
}
