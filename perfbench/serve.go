package main

import (
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"strconv"
	"time"
)

// serveWorkload is one serving-path traffic mix.
type serveWorkload struct {
	sessions int
	maxRate  float64 // per-session cap, B/s; 0 = uncapped
	// overloaded: the server's standing overload unfairness applies. The
	// number of sessions below the base-layer rate C, and of sessions
	// whose per-layer bytes do not nest, then changes from run to run,
	// so both are printed instead of failing sessions or a check.
	overloaded bool
}

// The make-up every serving workload shares: per-layer rate C, Kmax,
// layer count and packet size, and a 1 s open-loop join schedule.
const (
	serveC          = 6000.0
	serveKmax       = 2
	serveLayers     = 8
	servePkt        = 512
	serveJoinWindow = time.Second
)

var (
	servePaced    = serveWorkload{sessions: 500, maxRate: 16_000}
	serveOverload = serveWorkload{sessions: 200, overloaded: true}
)

// capSlack is how far a session's window rate may exceed its cap: the
// pacer repays lateness with a burst of at most 8 packets, and a window
// edge can cut a burst in two.
const capSlack = 1.02

// hierarchySlack bounds how many more payload bytes a layer may carry
// than the layer below it over a whole stream: one second of one layer
// at rate C, the granularity at which the controller adds and drops.
const hierarchySlack = serveC

// serveSetupRepeats is how many times a serving run starts a server
// child; a start takes milliseconds, so more of them steady the median.
const serveSetupRepeats = 50

// runServe measures one serving workload against a server child.
func runServe(o opts, w serveWorkload) (*report, error) {
	rep := newReport()
	args := []string{
		"-c", fmt.Sprint(serveC), "-kmax", strconv.Itoa(serveKmax),
		"-layers", strconv.Itoa(serveLayers), "-pkt", strconv.Itoa(servePkt),
		"-max-rate", fmt.Sprint(w.maxRate),
	}
	if o.trace {
		args = append(args, "-profile")
	}

	// Set up several times: start the server child and get its first
	// join answered. The last child serves the measured run. A set-up
	// is timed by the CPU it costs, the benchmark's and the child's
	// until the join is answered: its wall time, a few milliseconds, is
	// mostly waiting for a CPU on a shared host (3.5 to 39 ms within one
	// run on a 2-vCPU virtual machine, and medians 50% apart between
	// runs). An untraced run takes two host probes before the set-ups,
	// two after them and two after the window, and scales the set-ups'
	// and the window's CPU time by the median probe (see probe.go).
	var probes []probeCost
	probe := func() error {
		for i := 0; i < 2 && !o.trace; i++ {
			p, err := hostProbe()
			if err != nil {
				return err
			}
			probes = append(probes, p)
		}
		return nil
	}
	if err := probe(); err != nil {
		return nil, err
	}
	var setups, setupWalls []float64
	var child *serverChild
	for i := 0; i < serveSetupRepeats; i++ {
		t0 := time.Now()
		u0, s0 := selfCPU()
		c, err := startChild(args...)
		if err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddrPort(c.addr)
		if err == nil {
			err = probeJoin(addr, childTimeout)
		}
		u1, s1 := selfCPU()
		wall := time.Since(t0)
		var childCPU time.Duration
		if err == nil {
			childCPU, err = procSchedCPU(c.pid)
		}
		if err != nil {
			c.kill()
			return nil, fmt.Errorf("server child: %w", err)
		}
		setups = append(setups, (u1 + s1 - u0 - s0 + childCPU).Seconds())
		setupWalls = append(setupWalls, wall.Seconds())
		if i < serveSetupRepeats-1 {
			if err := c.stop(); err != nil {
				return nil, err
			}
		} else {
			child = c
		}
	}
	defer child.kill()
	if err := probe(); err != nil {
		return nil, err
	}
	server, _ := netip.ParseAddrPort(child.addr)

	// The steady window leaves out the join stagger and the ramp-up
	// after it, and ends before the streams do.
	total := time.Duration(o.seconds * float64(time.Second))
	winStart := 3 * time.Second
	if total < 2*winStart {
		winStart = total / 2
	}
	cfg := genConfig{
		server:     server,
		sessions:   w.sessions,
		joinWindow: serveJoinWindow,
		streamDur:  total + 5*time.Second,
		winStart:   winStart,
		winEnd:     total,
		seed:       o.seed,
	}
	start := time.Now()
	type genOut struct {
		res *genResult
		err error
	}
	done := make(chan genOut, 1)
	go func() {
		res, err := runGenerator(cfg, start, serveLayers)
		done <- genOut{res, err}
	}()

	time.Sleep(time.Until(start.Add(cfg.winStart)))
	m0, err := child.mark("mark")
	if err != nil {
		return nil, err
	}
	su0, ss0, err := procCPU(child.pid)
	if err != nil {
		return nil, err
	}
	sw0, _ := voluntarySwitches(child.pid)
	gu0, gs0 := selfCPU()
	tMark := time.Now()

	time.Sleep(time.Until(start.Add(cfg.winEnd)))
	su1, ss1, err := procCPU(child.pid)
	if err != nil {
		return nil, err
	}
	sw1, _ := voluntarySwitches(child.pid)
	gu1, gs1 := selfCPU()
	tEnd := time.Now()
	m1, err := child.mark("end")
	if err != nil {
		return nil, err
	}
	var prof []byte
	if o.trace {
		if prof, err = child.profile(); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSS(child.pid)
	if err != nil {
		return nil, err
	}
	out := <-done
	if out.err != nil {
		return nil, fmt.Errorf("load generator: %w", out.err)
	}
	if err := child.stop(); err != nil {
		return nil, err
	}
	// Two more probes, on the server's CPU now that it is idle, so the
	// median probe brackets the window as well as the set-ups.
	if err := probe(); err != nil {
		return nil, err
	}
	g := out.res
	win := (cfg.winEnd - cfg.winStart).Seconds()

	// Operations: one per session.
	var refused, starved, belowC int
	var pkts, wireBytes, payload int64
	var layerSum float64
	var layerBins int
	var joinMs, lateMs []int64
	hierOK, baseOK, capOK := 0, 0, 0
	maxRate := 0.0
	for _, s := range g.sess {
		pkts += s.winPkts
		wireBytes += s.winBytes
		payload += s.winPay
		for _, b := range s.bins {
			layerSum += float64(bits.OnesCount16(b))
			layerBins++
		}
		if s.sentAt >= 0 {
			lateMs = append(lateMs, (s.sentAt - s.joinAt).Microseconds())
		}
		switch {
		case s.firstData < 0:
			refused++
		case s.winPkts == 0:
			starved++
		default:
			joinMs = append(joinMs, (s.firstData - s.joinAt).Microseconds())
			if rate := float64(s.winBytes) / win; rate < serveC {
				belowC++
			}
		}
		if hierarchical(s.layerPay[:serveLayers]) {
			hierOK++
		}
		if baseProtected(s.layerPay[:serveLayers]) {
			baseOK++
		}
		rate := float64(s.winBytes) / win
		if rate > maxRate {
			maxRate = rate
		}
		if w.maxRate == 0 || rate <= w.maxRate*capSlack {
			capOK++
		}
	}
	rep.attempted = w.sessions
	rep.failed = refused + starved
	if !w.overloaded {
		rep.failed += belowC
	}
	rep.note("sessions %d: refused %d, starved %d, below C=%.0f B/s over the window %d", w.sessions, refused, starved, serveC, belowC)
	rep.note("packets per second of the window: %v", g.perSec)
	rep.note("generator: %d sockets, one I/O goroutine each; window %.2f s from %.1f s", g.sockets, win, cfg.winStart.Seconds())

	n := len(g.sess)
	rep.check("serve.decode", g.bad == 0 && g.badLayer == 0 && g.stray == 0,
		"%d undecodable datagrams, %d at layer >= %d, %d to unknown addresses", g.bad, g.badLayer, serveLayers, g.stray)
	rep.check("serve.base_protected", baseOK == n, "%d of %d sessions received at least as many base-layer bytes as any other layer's", baseOK, n)
	hier := fmt.Sprintf("%d of %d sessions: each layer's bytes within %.0f B of the layer below", hierOK, n, float64(hierarchySlack))
	if !w.overloaded {
		rep.check("serve.hierarchy", hierOK == n, "%s", hier)
	} else {
		rep.note("hierarchy, not checked under overload (it fails on a varying number of sessions): %s", hier)
	}
	if w.maxRate > 0 {
		rep.check("serve.cap", capOK == n, "%d of %d sessions at most %.0f B/s x %.2f over the window (highest %.0f)", capOK, n, w.maxRate, capSlack, maxRate)
	}
	sent := m1.Sent - m0.Sent
	var received int64
	for _, s := range g.sess {
		received += s.pkts
	}
	rep.check("serve.accounting", received <= m1.Sent && m1.Rejected == 0,
		"sessions received %d packets, server sent %d; %d joins rejected", received, m1.Sent, m1.Rejected)

	srvCPU := (su1 + ss1) - (su0 + ss0)
	if pkts == 0 {
		return nil, fmt.Errorf("no data packets in the window")
	}
	perPkt := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(pkts) }
	rep.note("server CPU %.3f s (user %.3f, system %.3f) over %.2f s (%.0f%% of a core), %d packets received, %d sent", srvCPU.Seconds(), (su1 - su0).Seconds(), (ss1 - ss0).Seconds(), win, 100*srvCPU.Seconds()/win, pkts, sent)

	if !o.trace {
		host := medianProbe(probes)
		noteProbes(rep, probes)
		rep.note("unscaled: setup CPU %.4f s, wall %.4f s (medians of %d); server CPU %.4f us/pkt", median(setups), median(setupWalls), len(setups), perPkt(srvCPU))
		rep.set("setup_s", "s", host.scaleCPU(time.Duration(median(setups)*float64(time.Second))))
		rep.set("pkts_per_s", "1/s", float64(pkts)/win)
		rep.set("cpu_us_per_pkt", "us", host.scaleCPU(srvCPU)*1e6/float64(pkts))
		rep.set("heap_peak_mb", "MB", float64(m1.HeapPeak)/1e6)
		rep.set("rss_peak_mb", "MB", float64(rss)/1e6)
		rep.set("goodput_Bps", "B/s", float64(payload)/win)
		rep.set("layers_mean", "layers", layerSum/float64(max(layerBins, 1)))
		return rep, nil
	}

	// Per-layer metrics of the traced run.
	p, err := parseCPUProfile(prof)
	if err != nil {
		return nil, err
	}
	setLayerShares(rep, p, srvCPU, pkts)
	rep.set("proc.user_us_per_pkt", "us", perPkt(su1-su0))
	rep.set("proc.sys_us_per_pkt", "us", perPkt(ss1-ss0))
	rep.set("proc.wakeups_per_kpkt", "count", float64(sw1-sw0)*1000/float64(pkts))
	rep.set("proc.allocs_per_pkt", "count", float64(m1.Mallocs-m0.Mallocs)/float64(pkts))
	rep.set("sim.events_per_pkt", "count", 0)
	batches := m1.Batches - m0.Batches
	rep.set("srv.batch_mean", "count", float64(sent)/float64(max(batches, 1)))
	rep.set("srv.retransmits_per_kpkt", "count", float64(m1.Retransmits-m0.Retransmits)*1000/float64(max(sent, 1)))
	rep.set("srv.unacked_pct", "%", 100*float64(sent-(m1.Acked-m0.Acked))/float64(max(sent, 1)))
	genCPU := (gu1 + gs1) - (gu0 + gs0)
	rep.set("gen.cpu_core_pct", "%", 100*genCPU.Seconds()/tEnd.Sub(tMark).Seconds())

	// Generator spans: join latency, lateness and delay above floor.
	slices.Sort(joinMs)
	slices.Sort(lateMs)
	delays := delayAboveFloor(g.delaySess, g.delayRaw)
	rep.note("gen.join_ms p50 %.2f p99 %.2f over %d sessions", float64(percentileSorted(joinMs, 0.5))/1e3, float64(percentileSorted(joinMs, 0.99))/1e3, len(joinMs))
	rep.note("gen.late_ms p99 %.3f", float64(percentileSorted(lateMs, 0.99))/1e3)
	rep.note("gen.delay_us above each session's floor p50 %d p99 %d over %d packets", percentileSorted(delays, 0.5), percentileSorted(delays, 0.99), len(delays))
	rep.note("gen.cpu_us_per_pkt %.3f", perPkt(genCPU))
	setMicro(rep, o.seed, microShape{
		consumption: serveC,
		rate:        float64(wireBytes) / win / float64(w.sessions),
		rtt:         0.05,
		depth:       w.sessions,
	})
	return rep, nil
}

// hierarchical reports whether a stream's per-layer payload bytes never
// exceed the layer below by more than hierarchySlack: the base layer is
// protected and every layer rests on the ones beneath it.
func hierarchical(layerBytes []int64) bool {
	for i := 1; i < len(layerBytes); i++ {
		if layerBytes[i] > layerBytes[i-1]+hierarchySlack {
			return false
		}
	}
	return true
}

// baseProtected reports whether the base layer carried at least as many
// payload bytes as every other layer.
func baseProtected(layerBytes []int64) bool {
	for _, b := range layerBytes[1:] {
		if b > layerBytes[0] {
			return false
		}
	}
	return true
}

// setServerZero records the serving-path metrics a simulator workload
// does not exercise: there is no server, so each is a true 0.
func setServerZero(rep *report) {
	rep.set("srv.batch_mean", "count", 0)
	rep.set("srv.retransmits_per_kpkt", "count", 0)
	rep.set("srv.unacked_pct", "%", 0)
	rep.set("gen.cpu_core_pct", "%", 0)
}
