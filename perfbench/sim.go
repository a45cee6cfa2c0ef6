package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"qav/internal/figures"
	"qav/internal/metrics"
	"qav/internal/scenario"
	"qav/internal/trace"
)

// simRun is what the benchmark keeps from one simulation: its report
// (config, quality, fleet goodput and the metrics snapshot).
type simRun struct {
	rep scenario.RunReport
}

// keep returns the run's report without its live registry: the
// registry's instruments reach the whole simulation, which would
// otherwise stay on the heap for as long as the report does.
func keep(rp scenario.RunReport) simRun {
	rp.Config.Metrics = nil
	rp.Config.SchedRec = nil
	return simRun{rep: rp}
}

// simRound is one round of a simulator workload: the runs it made and
// the host cost of making them.
type simRound struct {
	runs      []simRun
	failed    int           // runs that failed a check
	wall, cpu time.Duration // host and process CPU time of the simulations
	pkts      int64         // bottleneck packets simulated
	digest    string        // hash of every simulated counter of the round
}

// simWorkload describes one simulator workload.
type simWorkload struct {
	// setup builds the round's inputs and warms up; it is timed.
	setup func() error
	// round runs one round of operations, recording checks on rep.
	round func(rep *report) (simRound, error)
	// ops is the number of operations (simulations) per round.
	ops int
	// flowRate and consumption shape the QA microbenchmark: the fair
	// share a QA flow runs at and its per-layer rate C, in B/s.
	flowRate, consumption float64
}

// paperKmax is the Kmax sweep of the paper's Tables 1 and 2.
var paperKmax = []int{2, 3, 4, 5, 8}

func runPaper(o opts) (*report, error) {
	// T1 at the paper's scale: 20 flows share 800 Kb/s x 8, C is a
	// quarter of the fair share.
	fair := 100_000.0 * figures.DefaultScale / 20
	return runSim(o, simWorkload{
		setup: func() error {
			for _, test := range []string{"T1", "T2"} {
				for _, k := range paperKmax {
					if _, err := tableConfig(test, k); err != nil {
						return err
					}
				}
			}
			return warmup(scenario.MustPreset("T1", scenario.WithScale(figures.DefaultScale)), 40)
		},
		round:       paperRound,
		ops:         1 + 3 + 1 + 2*len(paperKmax),
		flowRate:    fair,
		consumption: fair / 4,
	})
}

// fleetFlows is the packet-flow population of the fleet workload.
const fleetFlows = 1000

func runFleet(o opts) (*report, error) {
	return runSim(o, simWorkload{
		setup: func() error {
			return warmup(scenario.MustPreset("Fleet", scenario.WithFlows(fleetFlows)), 4)
		},
		round:       fleetRound,
		ops:         1,
		flowRate:    5_000,
		consumption: 5_000.0 / 4,
	})
}

// warmup runs a shortened copy of cfg so the first measured round does
// not pay for cold caches and heap growth.
func warmup(cfg scenario.Config, dur float64) error {
	cfg.Duration = dur
	cfg.Metrics = metrics.NewRegistry()
	_, err := scenario.Run(cfg)
	return err
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// runSim measures a simulator workload: set up setupRepeats times, then whole
// rounds (at least two) until the run's time is spent. A traced run
// makes one untraced reference round first and profiles the rest.
func runSim(o opts, w simWorkload) (*report, error) {
	rep := newReport()
	// An untraced run probes the host before and after the set-ups and
	// after each round, and scales by the median probe (see probe.go).
	var probes []probeCost
	probe := func() error {
		if o.trace {
			return nil
		}
		p, err := hostProbe()
		probes = append(probes, p)
		return err
	}
	if err := probe(); err != nil {
		return nil, err
	}
	// A set-up is timed by its CPU time, as the rounds are.
	var setups, setupWalls []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		u0, s0 := selfCPU()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		u1, s1 := selfCPU()
		setups = append(setups, (u1 + s1 - u0 - s0).Seconds())
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
	}
	if err := probe(); err != nil {
		return nil, err
	}

	runtime.GC() // the rounds start from the live heap, not the set-ups' garbage
	heap := startHeapSampler()
	budget := time.Duration(o.seconds * float64(time.Second))
	var spent time.Duration // in rounds, probes excluded
	var rounds []simRound
	var ref string
	var prof bytes.Buffer
	var user0, sys0 time.Duration
	var ms0 runtime.MemStats
	var sw0 int64
	profiling := false
	for {
		if o.trace && len(rounds) == 1 {
			// The reference round ran untraced; profile from here on.
			runtime.ReadMemStats(&ms0)
			sw0, _ = voluntarySwitches(os.Getpid())
			user0, sys0 = selfCPU()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
			profiling = true
		}
		t0 := time.Now()
		r, err := w.round(rep)
		spent += time.Since(t0)
		if !o.trace {
			// Untimed, and the next round starts from the live heap.
			heap.Collect()
		}
		if err != nil {
			if profiling {
				pprof.StopCPUProfile()
			}
			return nil, err
		}
		if ref == "" {
			ref = r.digest
		}
		rep.attempted += w.ops
		rep.failed += r.failed
		rounds = append(rounds, r)
		if err := probe(); err != nil {
			return nil, err
		}
		// At least two rounds: every result is checked against a
		// repetition, and a traced run has its untraced reference round.
		if len(rounds) >= 2 && spent+r.wall > budget {
			break
		}
	}
	heap.Stop()

	same := 0
	for _, r := range rounds {
		if r.digest == ref {
			same++
		}
	}
	what := "every round simulated the same counters"
	if o.trace {
		what = "traced rounds simulated the same counters as the untraced one"
	}
	rep.check("sim.deterministic", same == len(rounds), "%s (%d of %d rounds match)", what, same, len(rounds))

	var goodput, layers []float64
	for i, r := range rounds {
		rep.note("round %d: %d simulations, %d packets, wall %.3f s, cpu %.3f s", i+1, len(r.runs), r.pkts, r.wall.Seconds(), r.cpu.Seconds())
		for _, run := range r.runs {
			goodput = append(goodput, run.rep.Fleet.QAGoodputBps)
			layers = append(layers, run.rep.MeanLayers)
		}
	}
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}

	if !o.trace {
		host := medianProbe(probes)
		var cpus, rawRates []float64
		for _, r := range rounds {
			// The simulations' CPU time, not their wall time: on a
			// virtual machine the wall clock includes the hypervisor's
			// steal (a round measured 13.6 s of wall for 9.6 s of CPU).
			cpus = append(cpus, r.cpu.Seconds()*1e6/float64(r.pkts))
			rawRates = append(rawRates, float64(r.pkts)/r.wall.Seconds())
		}
		cpu := median(cpus) * probeRef.Seconds() / host.cpu.Seconds()
		noteProbes(rep, probes)
		rep.note("unscaled: setup CPU %.4f s, wall %.4f s; %.6g pkts/s of wall, %.4f us/pkt", median(setups), median(setupWalls), median(rawRates), median(cpus))
		rep.set("setup_s", "s", host.scaleCPU(time.Duration(median(setups)*float64(time.Second))))
		rep.set("pkts_per_s", "1/s", 1e6/cpu)
		rep.set("cpu_us_per_pkt", "us", cpu)
		rep.set("heap_peak_mb", "MB", float64(heap.Peak())/1e6)
		rep.set("rss_peak_mb", "MB", float64(rss)/1e6)
		rep.set("goodput_Bps", "B/s", mean(goodput))
		rep.set("layers_mean", "layers", mean(layers))
		return rep, nil
	}

	pprof.StopCPUProfile()
	user1, sys1 := selfCPU()
	user, sys := user1-user0, sys1-sys0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	sw1, _ := voluntarySwitches(os.Getpid())
	traced := rounds[1:]
	var pkts, events int64
	var depth float64
	for _, r := range traced {
		pkts += r.pkts
		for _, run := range r.runs {
			events += run.rep.Metrics.Counters["sim.events.executed"]
			depth = math.Max(depth, run.rep.Metrics.Gauges["sim.sched.maxdepth"])
		}
	}
	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	setLayerShares(rep, p, user+sys, pkts)
	rep.set("proc.user_us_per_pkt", "us", float64(user.Nanoseconds())/1e3/float64(pkts))
	rep.set("proc.sys_us_per_pkt", "us", float64(sys.Nanoseconds())/1e3/float64(pkts))
	rep.set("proc.wakeups_per_kpkt", "count", float64(sw1-sw0)*1000/float64(pkts))
	rep.set("proc.allocs_per_pkt", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(pkts))
	rep.set("sim.events_per_pkt", "count", float64(events)/float64(pkts))
	setServerZero(rep)
	rep.note("traced rounds: %d, packets %d, max event-queue depth %.0f", len(traced), pkts, depth)
	setMicro(rep, o.seed, microShape{
		consumption: w.consumption,
		rate:        w.flowRate,
		rtt:         0.04,
		depth:       int(depth),
	})
	return rep, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timeOp makes one timed call into the simulator (a figure, a table
// cell, a Fleet run), keeps the reports of the runs it made, and adds
// its host time, CPU time and packets to the round's. The benchmark's
// own checks between calls are not timed.
func (r *simRound) timeOp(fn func() ([]scenario.RunReport, error)) error {
	u0, s0 := selfCPU()
	t0 := time.Now()
	reps, err := fn()
	r.wall += time.Since(t0)
	u1, s1 := selfCPU()
	r.cpu += u1 + s1 - u0 - s0
	for _, rp := range reps {
		r.pkts += rp.Metrics.Counters["link.tx.packets"]
		r.runs = append(r.runs, keep(rp))
	}
	return err
}

// tableConfig is one cell of the Table 1/2 sweep, instrumented.
func tableConfig(test string, kmax int) (scenario.Config, error) {
	cfg, err := scenario.Preset(test, scenario.WithKmax(kmax), scenario.WithScale(figures.DefaultScale))
	cfg.Metrics = metrics.NewRegistry()
	return cfg, err
}

// paperRound regenerates Figures 11, 12 and 13 and the Table 1/2 sweep
// serially and checks them. Each figure is checked as soon as it is
// made and then let go, so the heap holds one figure's simulations at
// a time.
func paperRound(rep *report) (simRound, error) {
	var r simRound
	var changes []int
	var before, during, after float64
	var effOK int
	var cells []figures.TableCell
	err := r.timeOp(func() ([]scenario.RunReport, error) {
		fig, err := figures.Figure11(2, figures.DefaultScale)
		if err != nil {
			return nil, err
		}
		return fig.Reports, nil
	})
	if err == nil {
		err = r.timeOp(func() ([]scenario.RunReport, error) {
			fig, err := figures.Figure12(figures.DefaultScale, 1)
			if err != nil {
				return nil, err
			}
			for _, rp := range fig.Reports {
				changes = append(changes, rp.Drops.Adds+rp.Drops.Drops)
			}
			return fig.Reports, nil
		})
	}
	if err == nil {
		err = r.timeOp(func() ([]scenario.RunReport, error) {
			fig, err := figures.Figure13(figures.DefaultScale)
			if err != nil {
				return nil, err
			}
			layers := fig.Run.Series.Get("qa.layers")
			before, during, after = timeAvg(layers, 15, 30), timeAvg(layers, 40, 60), timeAvg(layers, 75, 90)
			return fig.Reports, nil
		})
	}
	for _, test := range []string{"T1", "T2"} {
		for _, k := range paperKmax {
			if err != nil {
				break
			}
			err = r.timeOp(func() ([]scenario.RunReport, error) {
				cfg, err := tableConfig(test, k)
				if err != nil {
					return nil, err
				}
				res, err := scenario.Run(cfg)
				if err != nil {
					return nil, err
				}
				// Table 1: efficiency recomputed from the cell's raw
				// drop events.
				eff, drops := dropEfficiency(res.Events)
				if eff >= 0 && eff <= 1 && drops == res.Stats.Drops && math.Abs(eff-res.Stats.AvgEfficiency) < 1e-9 {
					effOK++
				} else {
					r.failed++
					rep.note("table cell %s/Kmax=%d: recomputed efficiency %.6f over %d drops, program says %.6f over %d",
						test, k, eff, drops, res.Stats.AvgEfficiency, res.Stats.Drops)
				}
				cells = append(cells, figures.TableCell{Test: test, Kmax: k, DropStats: res.Stats})
				return []scenario.RunReport{res.Report()}, nil
			})
		}
	}
	if err == nil {
		err = figures.RenderTables(io.Discard, cells)
	}
	if err != nil {
		return r, err
	}
	rep.check("paper.table1_efficiency", effOK == len(cells), "%d of %d cells: recomputed from drop events, in [0,1], equal to the table", effOK, len(cells))

	// Figure 12: quality changes must not increase with Kmax.
	mono := len(changes) == 3 && changes[0] >= changes[1] && changes[1] >= changes[2]
	if !mono {
		r.failed += 3
	}
	rep.check("paper.fig12_changes_vs_kmax", mono, "quality changes at Kmax 2/3/4: %v", changes)

	// Figure 13: layers dip while the CBR burst is on and recover after.
	dip := during < before && after > during
	if !dip {
		r.failed++
	}
	rep.check("paper.fig13_cbr_dip", dip, "mean layers before %.2f, during %.2f, after %.2f", before, during, after)

	// Capacity: no run delivers more than the bottleneck can carry.
	capOK := 0
	for _, run := range r.runs {
		if withinCapacity(run.rep) {
			capOK++
		} else {
			r.failed++
		}
	}
	rep.check("paper.capacity", capOK == len(r.runs), "%d of %d runs delivered at most bottleneck capacity x duration", capOK, len(r.runs))

	finishRound(&r)
	return r, nil
}

// fleetRound runs the Fleet preset at fleetFlows packet flows.
func fleetRound(rep *report) (simRound, error) {
	var r simRound
	cfg := scenario.MustPreset("Fleet", scenario.WithFlows(fleetFlows))
	cfg.Metrics = metrics.NewRegistry()
	var res *scenario.Result
	var rp scenario.RunReport
	err := r.timeOp(func() ([]scenario.RunReport, error) {
		var err error
		if res, err = scenario.Run(cfg); err != nil {
			return nil, err
		}
		rp = res.Report()
		// The report's mean layers are the first QA flow's; a fleet
		// viewer is any of them.
		var qaLayers float64
		for _, q := range res.QASrcs {
			if q.Ctrl.PlayedSec > 0 {
				qaLayers += q.Ctrl.LayerSeconds / q.Ctrl.PlayedSec
			}
		}
		rp.MeanLayers = qaLayers / float64(len(res.QASrcs))
		return []scenario.RunReport{rp}, nil
	})
	if err != nil {
		return r, err
	}

	var tcp []float64
	for _, t := range res.TCPSrcs {
		tcp = append(tcp, float64(t.GoodputBytes()))
	}
	j := jain(tcp)
	jainOK := math.Abs(j-rp.Fleet.JainFairnessTCP) < 1e-9
	rep.check("fleet.jain", jainOK, "Jain over %d TCP flows recomputed %.6f, report %.6f", len(tcp), j, rp.Fleet.JainFairnessTCP)

	var delivered int64
	for _, q := range res.QASrcs {
		delivered += q.RecvBytes
	}
	for _, s := range res.RAPSrcs {
		delivered += s.RecvBytes
	}
	for _, t := range res.TCPSrcs {
		delivered += t.GoodputBytes()
	}
	capacity := cfg.BottleneckRate * cfg.Duration
	capOK := float64(delivered) <= capacity && withinCapacity(rp)
	rep.check("fleet.capacity", capOK, "delivered %d B, capacity x duration %.0f B", delivered, capacity)
	if !jainOK || !capOK {
		r.failed++
	}
	finishRound(&r)
	return r, nil
}

// withinCapacity checks one run's delivered goodput and bottleneck
// transmissions against the bottleneck's rate over the run.
func withinCapacity(rp scenario.RunReport) bool {
	cfg := rp.Config
	good := rp.Fleet.QAGoodputBps + rp.Fleet.RAPGoodputBps + rp.Fleet.TCPGoodputBps
	tx := float64(rp.Metrics.Counters["link.tx.bytes"])
	return good <= cfg.BottleneckRate && tx <= cfg.BottleneckRate*cfg.Duration+float64(cfg.PacketSize)
}

// finishRound totals the round's packets and fingerprints its counters.
func finishRound(r *simRound) {
	h := sha256.New()
	for _, run := range r.runs {
		b, _ := json.Marshal(struct {
			C map[string]int64
			F scenario.FleetStats
			D trace.DropStats
		}{run.rep.Metrics.Counters, run.rep.Fleet, run.rep.Drops}) // maps marshal sorted
		h.Write(b)
	}
	r.digest = fmt.Sprintf("%x", h.Sum(nil))
}

// timeAvg is the time-weighted mean of a sampled series over [t0, t1),
// each sample holding until the next (the last until t1); 0 when no
// sample covers the interval.
func timeAvg(s *trace.Series, t0, t1 float64) float64 {
	var area, span float64
	for i := range s.T {
		a := s.T[i]
		b := t1
		if i+1 < len(s.T) && s.T[i+1] < b {
			b = s.T[i+1]
		}
		if a < t0 {
			a = t0
		}
		if b > a {
			area += s.V[i] * (b - a)
			span += b - a
		}
	}
	if span == 0 {
		return 0
	}
	return area / span
}
