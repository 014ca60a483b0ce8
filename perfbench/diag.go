package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// diag records the run's conditions: host CPU steal over the run, the
// process's CPU seconds, GOMAXPROCS, nproc and the Go version. They
// are printed, not gated — a run disturbed by a noisy neighbour must
// be visible in its report, not silently averaged in.
type diag struct {
	start    time.Time
	cpu0     procStat
	rusage0  float64
	faults0  int64
	statOKAt bool
	yard0    float64
}

// procStat is the aggregate "cpu" line of /proc/stat, in jiffies.
type procStat struct {
	total, steal uint64
}

func readProcStat() (procStat, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return procStat{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return procStat{}, false
	}
	var ps procStat
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return procStat{}, false
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			ps.total += v
		}
		if i == 7 {
			ps.steal = v
		}
	}
	return ps, true
}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// minorFaults is the process's minor page-fault count.
func minorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Minflt
}

// yardstick times a fixed register-only integer loop and returns the
// median nanoseconds per iteration of five repeats. It touches no
// memory, so a change in it between runs is a change in the machine
// (host load on a sibling hyperthread, frequency), which steal does
// not show.
func yardstick() float64 {
	const iters = 1 << 21
	var times []float64
	x := uint64(0x9e3779b97f4a7c15)
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			x += 0x9e3779b97f4a7c15
			z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			x ^= z >> 31
		}
		times = append(times, float64(time.Since(start).Nanoseconds())/iters)
	}
	yardSink = x
	return quantile(times, 0.5)
}

// yardSink keeps the yardstick loop from being optimised away.
var yardSink uint64

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func startDiag() *diag {
	ps, ok := readProcStat()
	return &diag{start: time.Now(), cpu0: ps, rusage0: cpuSeconds(), faults0: minorFaults(),
		statOKAt: ok, yard0: yardstick()}
}

func (d *diag) print() {
	wall := time.Since(d.start).Seconds()
	steal := "unavailable"
	if ps, ok := readProcStat(); ok && d.statOKAt && ps.total > d.cpu0.total {
		steal = fmt.Sprintf("%.2f%%", 100*float64(ps.steal-d.cpu0.steal)/float64(ps.total-d.cpu0.total))
	}
	fmt.Printf("  diag: wall %.2fs, process cpu %.2fs, host steal %s, minor faults %d, yardstick %.3f→%.3f ns/iter, GOMAXPROCS %d, nproc %d, %s\n",
		wall, cpuSeconds()-d.rusage0, steal, minorFaults()-d.faults0, d.yard0, yardstick(),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
}

// rtCounters are the Go runtime's cumulative allocation and GC
// counters, read through runtime/metrics.
type rtCounters struct {
	gcs, bytes, objects uint64
}

func readRuntime() rtCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var c rtCounters
	for i, p := range []*uint64{&c.gcs, &c.bytes, &c.objects} {
		if s[i].Value.Kind() == metrics.KindUint64 {
			*p = s[i].Value.Uint64()
		}
	}
	return c
}

func (c rtCounters) sub(o rtCounters) rtCounters {
	return rtCounters{c.gcs - o.gcs, c.bytes - o.bytes, c.objects - o.objects}
}

// rtTotals accumulates runtime counter deltas over a run's ops.
type rtTotals struct {
	ops int
	sum rtCounters
	// perOpGCs is each op's GC-cycle count, printed so a second
	// latency mode caused by GC shows in the report.
	perOpGCs []uint64
}

func (t *rtTotals) add(d rtCounters) {
	t.ops++
	t.sum.gcs += d.gcs
	t.sum.bytes += d.bytes
	t.sum.objects += d.objects
	t.perOpGCs = append(t.perOpGCs, d.gcs)
}

// report adds the runtime.* per-op metrics.
func (t *rtTotals) report(o *outcome) {
	n := float64(t.ops)
	if n == 0 {
		n = 1
	}
	o.add("runtime.gc_cycles_per_op", float64(t.sum.gcs)/n, "count", t.ops)
	o.add("runtime.alloc_mb_per_op", float64(t.sum.bytes)/n/(1<<20), "MB", t.ops)
	o.add("runtime.allocs_per_op", float64(t.sum.objects)/n, "count", t.ops)
}

// print writes the per-op GC histogram (how many ops saw k GCs).
func (t *rtTotals) print(label string) {
	hist := map[uint64]int{}
	var maxK uint64
	for _, k := range t.perOpGCs {
		hist[k]++
		if k > maxK {
			maxK = k
		}
	}
	var b strings.Builder
	for k := uint64(0); k <= maxK; k++ {
		if hist[k] > 0 {
			fmt.Fprintf(&b, " %d×%d", hist[k], k)
		}
	}
	fmt.Printf("  %s: %d ops, GC cycles per op (ops×cycles):%s, %.2f MB and %.0f objects allocated per op\n",
		label, t.ops, b.String(), float64(t.sum.bytes)/float64(max(t.ops, 1))/(1<<20),
		float64(t.sum.objects)/float64(max(t.ops, 1)))
}
