package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs each of workloads k times, each in a child process of
// this binary with its own seed (seed, seed+1, …), alternating the
// workload order from round to round, and prints each metric's
// median, quartiles, IQR/median and (max−min)/median. Those spreads are
// what BENCHMARK.json's bounds are set from.
func steadiness(workloads []string, k int, seed int64, seconds, traceOn int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[key]string{}
	for round := 0; round < k; round++ {
		order := append([]string(nil), workloads...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		s := seed + int64(round)
		for _, w := range order {
			args := []string{"-workload", w, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traceOn)}
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", w, s, err, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: parsing the result line: %v", w, s, err)
			}
			diagLine := ""
			for _, l := range lines {
				if strings.HasPrefix(strings.TrimSpace(l), "diag:") {
					diagLine = strings.TrimSpace(l)
				}
			}
			fmt.Printf("round %d %-6s seed %-4d correct=%v attempted=%d failed=%d  %s\n",
				round, w, s, res.Correct, res.Attempted, res.Failed, diagLine)
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: run incorrect:\n%s", w, s, stdout.String())
			}
			// Echo the child's metric lines: value, unit and sample count.
			for _, l := range lines {
				if f := strings.Fields(l); len(f) > 0 {
					if _, ok := res.Metrics[f[0]]; ok {
						fmt.Printf("    %s\n", strings.TrimSpace(l))
					}
				}
			}
			for name, m := range res.Metrics {
				kk := key{w, name}
				values[kk] = append(values[kk], m.Value)
				units[kk] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(values))
	for kk := range values {
		keys = append(keys, kk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Printf("\n%-6s %-32s %14s %14s %14s %9s %9s  %s\n",
		"work", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "values")
	for _, kk := range keys {
		v := values[kk]
		q1, med, q3 := pyQuartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		var vs []string
		for _, x := range v {
			vs = append(vs, strconv.FormatFloat(x, 'g', 5, 64))
		}
		fmt.Printf("%-6s %-32s %14.6g %14.6g %14.6g %8.1f%% %8.1f%%  %s %s\n",
			kk.workload, kk.metric, med, q1, q3, 100*(q3-q1)/med, 100*(hi-lo)/med,
			units[kk], strings.Join(vs, " "))
	}
	return nil
}

// pyQuartiles returns the quartiles as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), which is how the spread of a set of runs is
// judged. One value yields itself three times.
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
