package spotbid_test

// End-to-end smoke tests for the command-line tools: each binary is
// compiled and run with light parameters, and its output checked for
// the markers a user relies on. The heavy lifting inside each command
// is covered by the package tests; these catch flag-plumbing and
// output-format regressions.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCmd compiles ./cmd/<name> into a temp dir once per test.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	return buildPkg(t, "./cmd/"+name)
}

// buildPkg compiles the main package at pkg into a temp dir.
func buildPkg(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return string(out)
}

func TestSpotsimCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "spotsim")

	// Summary mode.
	out := runCmd(t, bin, "-type", "r3.xlarge", "-days", "3", "-summary")
	for _, want := range []string{"instance type : r3.xlarge", "price range", "p90", "day/night KS"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q in:\n%s", want, out)
		}
	}

	// CSV mode round-trips through the library parser (header + rows).
	out = runCmd(t, bin, "-type", "c3.large", "-days", "1")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+288 {
		t.Fatalf("CSV lines = %d, want 289", len(lines))
	}
	if lines[0] != "Timestamp,InstanceType,ProductDescription,SpotPrice" {
		t.Errorf("header = %q", lines[0])
	}

	// List mode covers the whole catalog.
	out = runCmd(t, bin, "-list")
	if !strings.Contains(out, "r3.8xlarge") || !strings.Contains(out, "on-demand") {
		t.Errorf("list output:\n%s", out)
	}

	// -metrics reports generation stats on stderr; stdout stays pure
	// CSV for piping.
	cmd := exec.Command(bin, "-type", "c3.large", "-days", "1", "-metrics")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("spotsim -metrics: %v\n%s", err, stderr.String())
	}
	if got := strings.Split(strings.TrimSpace(stdout.String()), "\n"); len(got) != 1+288 {
		t.Errorf("-metrics CSV lines = %d, want 289", len(got))
	}
	for _, want := range []string{"trace.slots_generated", "trace.price_usd"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("metrics stderr missing %q in:\n%s", want, stderr.String())
		}
	}

	// Bad flags exit non-zero.
	if err := exec.Command(bin, "-type", "bogus", "-summary").Run(); err == nil {
		t.Error("unknown type should fail")
	}
	if err := exec.Command(bin, "-dynamics", "nope").Run(); err == nil {
		t.Error("unknown dynamics should fail")
	}
	rejectsTraceFormat(t, bin, "-type", "c3.large", "-days", "1")

	// -trace-format implies -trace: the trace goes to stderr.
	cmd = exec.Command(bin, "-type", "c3.large", "-days", "1", "-trace-format", "chrome")
	stdout.Reset()
	stderr.Reset()
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("spotsim -trace-format chrome: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `"traceEvents"`) {
		t.Errorf("-trace-format chrome wrote no Chrome trace to stderr:\n%s", stderr.String())
	}
}

// rejectsTraceFormat runs bin with a bogus -trace-format and requires
// it to fail before producing any output: the flag is checked before
// anything runs, not at export.
func rejectsTraceFormat(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, append(args, "-trace-format", "bogus")...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Errorf("%s -trace-format bogus exited 0", filepath.Base(bin))
	}
	if stdout.Len() != 0 {
		t.Errorf("%s -trace-format bogus ran before failing; stdout:\n%s", filepath.Base(bin), stdout.String())
	}
	if !strings.Contains(stderr.String(), "-trace-format") {
		t.Errorf("%s -trace-format bogus: stderr does not name the flag:\n%s", filepath.Base(bin), stderr.String())
	}
}

func TestBidcalcCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "bidcalc")

	out := runCmd(t, bin, "-type", "r3.xlarge", "-exec", "1h", "-recovery", "30s", "-deadline", "2h")
	for _, want := range []string{"one-time (Prop. 4)", "persistent (Prop. 5)", "deadline", "best offline"} {
		if !strings.Contains(out, want) {
			t.Errorf("bidcalc missing %q in:\n%s", want, out)
		}
	}

	out = runCmd(t, bin, "-type", "c3.4xlarge", "-exec", "2h", "-recovery", "30s",
		"-overhead", "60s", "-mapreduce", "-master", "m3.xlarge")
	for _, want := range []string{"MapReduce plan (Eq. 20)", "master (m3.xlarge)", "persistent bid"} {
		if !strings.Contains(out, want) {
			t.Errorf("mapreduce plan missing %q in:\n%s", want, out)
		}
	}

	// A negative deadline, or a miss probability outside (0, 1) with a
	// deadline, fails before any work and names the flag.
	for _, args := range [][]string{
		{"-deadline", "-1h"},
		{"-deadline", "3h", "-missprob", "1.5"},
		{"-deadline", "3h", "-missprob", "0"},
	} {
		cmd := exec.Command(bin, args...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("bidcalc %v exited 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("bidcalc %v ran before failing; stdout:\n%s", args, stdout.String())
		}
		if flag := args[len(args)-2]; !strings.Contains(stderr.String(), flag) {
			t.Errorf("bidcalc %v: stderr does not name %s:\n%s", args, flag, stderr.String())
		}
	}

	// A history file is accepted.
	spotsim := buildCmd(t, "spotsim")
	csv := runCmd(t, spotsim, "-type", "r3.xlarge", "-days", "62")
	hist := filepath.Join(t.TempDir(), "hist.csv")
	if err := os.WriteFile(hist, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCmd(t, bin, "-history", hist, "-exec", "1h")
	if !strings.Contains(out, "17856 price points") {
		t.Errorf("history mode output:\n%s", out)
	}
}

func TestExperimentsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "experiments")
	out := runCmd(t, bin, "-only", "table3,stability", "-runs", "1")
	for _, want := range []string{"Table 3", "persistent-30s", "Stability", "threshold"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments missing %q in:\n%s", want, out)
		}
	}

	// -metrics appends the aggregated snapshot; -metrics-json emits it
	// as JSON.
	out = runCmd(t, bin, "-only", "table3", "-runs", "1", "-metrics")
	for _, want := range []string{"== Metrics", "experiments.table3.types", "trace.price_usd"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments -metrics missing %q in:\n%s", want, out)
		}
	}
	out = runCmd(t, bin, "-only", "table3", "-runs", "1", "-metrics-json")
	for _, want := range []string{"== Metrics (JSON)", `"counters"`, `"experiments.table3.types"`} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments -metrics-json missing %q in:\n%s", want, out)
		}
	}

	// The strategy tournament ranks every registered strategy with its
	// invariant audit and replay verdict in the league table.
	out = runCmd(t, bin, "-only", "tournament", "-runs", "1")
	for _, want := range []string{"Tournament", "rank", "savings", "violations", "replay",
		"one-time", "persistent", "pid", "portfolio", "autospot", "on-demand"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments tournament missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DIVERGED") {
		t.Errorf("tournament replay diverged:\n%s", out)
	}
	rejectsTraceFormat(t, bin, "-only", "table3", "-runs", "1")

	// A misspelt -only key fails before anything runs and lists the
	// known keys.
	cmd := exec.Command(bin, "-only", "tabel3", "-runs", "1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Error("-only tabel3 exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("-only tabel3 ran before failing; stdout:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `"tabel3"`) || !strings.Contains(msg, "table3") {
		t.Errorf("-only tabel3: stderr names neither the key nor the known keys:\n%s", msg)
	}
}

// startSpotbidd starts the daemon and waits for its listening line.
// It returns the address it reports and a channel that yields the rest
// of its stderr once the daemon exits; the daemon is killed when the
// test ends.
func startSpotbidd(t *testing.T, bin string, args ...string) (cmd *exec.Cmd, addr string, rest <-chan string) {
	t.Helper()
	cmd = exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listening line on stderr (scan error: %v)", sc.Err())
	}
	// Drain the rest of stderr in the background so the drain-time
	// flush is captured (and the pipe never blocks the daemon).
	out := make(chan string, 1)
	go func() {
		var b strings.Builder
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteString("\n")
		}
		out <- b.String()
	}()
	return cmd, addr, out
}

// httpGet fetches path from the daemon at addr.
func httpGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestSpotbiddCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "spotbidd")

	// The default warm-up of 288 slots fills the window to MinSamples
	// at slot 287, between two rebuild slots. The daemon must still
	// listen with a fresh table for every market, not wait for the
	// ticker's next slot, 5 minutes away at -accel 1.
	_, addr, _ := startSpotbidd(t, bin, "-addr", "127.0.0.1:0", "-accel", "1", "-days", "3")
	if code, body := httpGet(t, addr, "/readyz"); code != 200 || !strings.Contains(body, `"ready":true`) {
		t.Errorf("default warm-up: readyz = %d %q", code, body)
	}
	if code, body := httpGet(t, addr, "/v1/quote?type=r3.xlarge&exec_hours=4&recovery_seconds=600&class=batch"); code != 200 ||
		!strings.Contains(body, `"tier":"fresh"`) {
		t.Errorf("default warm-up: quote = %d %q", code, body)
	}

	// Port 0: the daemon reports the bound address on stderr.
	cmd, addr, rest := startSpotbidd(t, bin, "-addr", "127.0.0.1:0", "-accel", "300", "-days", "3", "-warmup", "300")
	get := func(path string) (int, string) {
		t.Helper()
		return httpGet(t, addr, path)
	}

	if code, body := get("/healthz"); code != 200 {
		t.Errorf("healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, `"ready":true`) {
		t.Errorf("readyz = %d %q", code, body)
	}
	code, body := get("/v1/quote?type=r3.xlarge&exec_hours=4&recovery_seconds=600&class=batch")
	if code != 200 {
		t.Fatalf("quote = %d %q", code, body)
	}
	for _, want := range []string{`"tier":"fresh"`, `"feasible":true`, `"price"`, `"table_version"`} {
		if !strings.Contains(body, want) {
			t.Errorf("quote body missing %q in:\n%s", want, body)
		}
	}
	if code, body := get("/v1/quote?type=r3.xlarge&exec_hours=-1"); code != 400 || !strings.Contains(body, "rejected_invalid") {
		t.Errorf("invalid quote = %d %q", code, body)
	}
	if code, body := get("/metricz"); code != 200 || !strings.Contains(body, "serve.outcome.served_fresh") {
		t.Errorf("metricz = %d %q", code, body)
	}

	// SIGINT drains gracefully: ledger + metrics flushed, exit 0.
	// Stderr must hit EOF before Wait — Wait closes the pipe and
	// would race the reader out of the drain-time flush.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var flush string
	select {
	case flush = <-rest:
	case <-time.After(10 * time.Second):
		t.Fatal("spotbidd did not exit within 10s of SIGINT")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("spotbidd exited non-zero after SIGINT: %v", err)
	}
	for _, want := range []string{"draining", "served_fresh=", "== Metrics", "serve.table_swaps", "bye"} {
		if !strings.Contains(flush, want) {
			t.Errorf("drain flush missing %q in:\n%s", want, flush)
		}
	}
}

func TestSpotbidtopCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "spotbidtop")

	// Drill mode renders the degrade → shed → recover walk: sparklines
	// per series plus the SLO transition log.
	out := runCmd(t, bin, "-drill")
	for _, want := range []string{
		"spotbidtop — drill", "replay byte-identical",
		"serve.tier", "slo.firing", "slo.burn_rate",
		"fresh-tier-ratio FIRING", "fresh-tier-ratio RESOLVED",
		"shed-rate FIRING", "bucket series hidden",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("drill output missing %q in:\n%s", want, out)
		}
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("drill output has no sparkline cells:\n%s", out)
	}

	// -match filters; -buckets reveals the histogram series.
	out = runCmd(t, bin, "-drill", "-match", "slo.")
	if strings.Contains(out, "serve.builds") || !strings.Contains(out, "slo.firing") {
		t.Errorf("-match slo. output:\n%s", out)
	}
	out = runCmd(t, bin, "-drill", "-buckets", "-match", ":bucket")
	if !strings.Contains(out, `le="+Inf"`) {
		t.Errorf("-buckets output missing le series:\n%s", out)
	}

	// Replay mode round-trips a dump written by experiments -tsdb-out:
	// the same alert walk, reconstructed from the slo.firing series.
	experiments := buildCmd(t, "experiments")
	dump := filepath.Join(t.TempDir(), "drill.jsonl")
	runCmd(t, experiments, "-only", "serve", "-runs", "1", "-tsdb-out", dump)
	out = runCmd(t, bin, "-replay", dump)
	for _, want := range []string{"spotbidtop — replay", "fresh-tier-ratio FIRING", "fresh-tier-ratio RESOLVED"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q in:\n%s", want, out)
		}
	}

	// Conflicting modes exit non-zero.
	if err := exec.Command(bin, "-drill", "-replay", dump).Run(); err == nil {
		t.Error("-drill with -replay should fail")
	}
}

func TestResilcheckCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "resilcheck")

	// A trimmed campaign: grid only, no replay, JSON report on stdout
	// and the human summary on stderr. Exit 0 means every invariant
	// held.
	cmd := exec.Command(bin, "-random", "0", "-replay=false", "-out", "-")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("resilcheck: %v\nstderr:\n%s", err, stderr.String())
	}
	for _, want := range []string{`"checkers"`, `"billing-conservation"`, `"replay-determinism"`,
		`"violating": 0`, `"errors": 0`} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "resilcheck:") ||
		!strings.Contains(stderr.String(), "0 violating") {
		t.Errorf("summary line missing from stderr:\n%s", stderr.String())
	}
	// Wall-clock time must never leak into the deterministic report.
	if strings.Contains(stdout.String(), "elapsed") {
		t.Errorf("JSON report carries wall-clock data:\n%s", stdout.String())
	}
}

// TestFleetExamplesPinned runs the facade's two fleet samples at their
// default flags and pins the SHA-256 of each one's stdout, so a change
// to the fleet controller or its FleetConfig cannot move a byte a user
// of the samples sees.
func TestFleetExamplesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, ex := range []struct{ pkg, sha string }{
		{"./examples/failover", "c9b0f84287f7a62a5c4b57906835f2b4cb717fa1dd90ce41b1e8f55b69441048"},
		{"./examples/flightrecorder", "f126063ff4ae42f399e70299ab89c5e13d56a6779ec7dffef76ee3dd3fca7961"},
	} {
		sum := sha256.Sum256([]byte(runCmd(t, buildPkg(t, ex.pkg))))
		if got := hex.EncodeToString(sum[:]); got != ex.sha {
			t.Errorf("%s stdout: sha256 %s, pinned %s", ex.pkg, got, ex.sha)
		}
	}
}
