// Command perfbench is the repository's benchmark: one program that runs
// the simulator and the multi-client server on four workloads, checks
// their outputs, and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 15, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh steady -k 5 -workloads fleet
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// profiles the process doing the work and reports the per-layer ones.
// See README.md for what each metric means and which layer moves it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one benchmark run; past it the run fails with a
// message instead of hanging.
const runLimit = 170 * time.Second

// opts is one run's parameterization, from the command-line flags.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what a workload measured and checked.
type report struct {
	attempted int
	failed    int
	checks    []check
	metrics   map[string]metric
	info      []string
}

// check is one correctness check and its outcome.
type check struct {
	name   string
	ok     bool
	detail string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// check records a check's outcome. A check made once per round keeps
// one line: it passes only if every round passed, and shows the first
// failure's detail, or else the latest round's.
func (r *report) check(name string, ok bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	for i := range r.checks {
		if c := &r.checks[i]; c.name == name {
			if c.ok {
				c.detail = detail
			}
			c.ok = c.ok && ok
			return
		}
	}
	r.checks = append(r.checks, check{name, ok, detail})
}

func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// print writes the human-readable lines and then the result line.
func (r *report) print(o opts) error {
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("# workload %s seed %d seconds %g: %s metrics\n", o.workload, o.seed, o.seconds, mode)
	fmt.Printf("# host  %s/%s, %d CPUs, GOMAXPROCS %d, %s\n", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if cpus, err := threadCPUs(); err == nil {
		fmt.Printf("# host  benchmark process on CPUs %s, server children on %s (of %s)\n", formatCPUs(cpus), formatCPUs(childCPUs), os.Getenv(pinEnv))
	}
	for _, line := range r.info {
		fmt.Printf("# info  %s\n", line)
	}
	for _, c := range r.checks {
		status := "pass"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("# check %-28s %s  %s\n", c.name, status, c.detail)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# metric %-30s %16.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Printf("# operations attempted %d failed %d\n", r.attempted, r.failed)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*report, error){
	"paper":          runPaper,
	"fleet":          runFleet,
	"serve-paced":    func(o opts) (*report, error) { return runServe(o, servePaced) },
	"serve-overload": func(o opts) (*report, error) { return runServe(o, serveOverload) },
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			if err := steadyMain(os.Args[2:]); err != nil {
				fatalf("steady: %v", err)
			}
			return
		case probeArg:
			if err := probeMain(); err != nil {
				fatalf("probe: %v", err)
			}
			return
		case childArg:
			if err := childMain(os.Args[2:]); err != nil {
				fatalf("server child: %v", err)
			}
			return
		}
	}
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper, fleet, serve-paced, serve-overload")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the run measures, seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace != 0
	run, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (have paper, fleet, serve-paced, serve-overload)", o.workload)
	}
	if o.seconds <= 0 {
		fatalf("--seconds must be positive, got %g", o.seconds)
	}
	if err := pinSelf(strings.HasPrefix(o.workload, "serve")); err != nil {
		fatalf("%v", err)
	}
	watchdog()
	rep, err := run(o)
	if err != nil {
		stopChildren()
		fatalf("%s: %v", o.workload, err)
	}
	if err := rep.print(o); err != nil {
		fatalf("print result: %v", err)
	}
}

// watchdog ends the run with a message when it exceeds runLimit or the
// process is interrupted, after stopping any server child.
func watchdog() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			stopChildren()
			fatalf("interrupted by %v", s)
		case <-time.After(runLimit):
			stopChildren()
			fatalf("run exceeded its %v limit", runLimit)
		}
	}()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+strings.TrimSuffix(format, "\n")+"\n", args...)
	os.Exit(1)
}
