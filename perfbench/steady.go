package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is a run's last output line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// steadyMain runs each workload k times (per set) with a fresh seed each
// time and prints, for every end-to-end metric, the median, quartiles
// and spread (Q3-Q1 over the median) against the metric's bound. With
// -sets 2 it also compares the second set's median with the first's in
// the metric's worse direction, and the two sets' failed shares.
func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	k := fs.Int("k", 10, "runs per workload and set")
	sets := fs.Int("sets", 1, "sets of k runs (2 compares their medians)")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in the spec)")
	seed0 := fs.Int64("seed", 1, "first seed; each run uses the next")
	seconds := fs.Float64("seconds", 0, "seconds per run (default: the spec's run_seconds)")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark specification")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	seed := *seed0
	// results[set][workload] lists that set's runs of the workload.
	results := make([]map[string][]runResult, *sets)
	for s := range results {
		results[s] = map[string][]runResult{}
		for _, name := range names {
			for i := 0; i < *k; i++ {
				r, err := steadyRun(self, name, seed, *seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, seed, err)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d: correct=%v attempted=%d failed=%d\n", s+1, name, seed, r.Correct, r.Attempted, r.Failed)
				results[s][name] = append(results[s][name], r)
				seed++
			}
		}
	}
	ok := true
	for _, name := range names {
		fmt.Printf("## %s (%d runs per set, %g s each)\n", name, *k, *seconds)
		fmt.Printf("%-16s %4s %14s %14s %14s %8s %7s %s\n", "metric", "set", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			var firstMed float64
			for s := range results {
				var vals []float64
				for _, r := range results[s][name] {
					vals = append(vals, r.Metrics[m.Name].Value)
				}
				med := median(vals)
				q1, q3 := quartiles(vals)
				spread := (q3 - q1) / med
				verdict := "ok"
				if m.Name != "setup_s" && !(spread <= m.Bound) {
					verdict, ok = "SPREAD", false
				} else if m.Name != "setup_s" && spread > m.Bound/3 {
					verdict = "ok (above a third of the bound)"
				}
				if s == 0 {
					firstMed = med
				} else if worse := relWorse(firstMed, med, m.Better); worse > m.Bound {
					verdict, ok = fmt.Sprintf("MEDIAN %.1f%% worse", 100*worse), false
				}
				fmt.Printf("%-16s %4d %14.6g %14.6g %14.6g %7.2f%% %6.1f%% %s\n", m.Name, s+1, med, q1, q3, 100*spread, 100*m.Bound, verdict)
			}
		}
		var shares []string
		for s := range results {
			att, fail := 0, 0
			correct := true
			for _, r := range results[s][name] {
				att += r.Attempted
				fail += r.Failed
				correct = correct && r.Correct
			}
			shares = append(shares, fmt.Sprintf("set %d: failed %d of %d, all correct %v", s+1, fail, att, correct))
		}
		fmt.Printf("operations: %s\n", strings.Join(shares, "; "))
		if !sameFailedShare(results, name) {
			fmt.Println("operations: FAILED SHARE DIFFERS between runs")
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("not steady")
	}
	return nil
}

// relWorse is how much worse b is than a, as a share of a, in the
// direction better names ("lower" or "higher"); negative when better.
func relWorse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// sameFailedShare reports whether every run of a workload failed the
// same share of its operations.
func sameFailedShare(results []map[string][]runResult, name string) bool {
	var shares []string
	for _, set := range results {
		for _, r := range set[name] {
			shares = append(shares, fmt.Sprintf("%.12g", float64(r.Failed)/float64(r.Attempted)))
		}
	}
	sort.Strings(shares)
	return len(shares) == 0 || shares[0] == shares[len(shares)-1]
}

// steadyRun runs the benchmark once and parses its result line.
func steadyRun(self, workload string, seed int64, seconds float64) (runResult, error) {
	var r runResult
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	dec := json.NewDecoder(bytes.NewReader([]byte(last)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("result line %q: %w", last, err)
	}
	return r, nil
}
