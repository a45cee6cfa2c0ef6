package main

import (
	"bytes"
	"context"
	"math"
	"net"
	"net/netip"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"qav/internal/core"
	"qav/internal/netio"
	"qav/internal/rap"
	"qav/internal/trace"
)

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"qav/internal/sim.(*Engine).Step":      "qav/internal/sim",
		"qav/internal/scenario.Run.func1":      "qav/internal/scenario",
		"qav/internal/transport/delay.New":     "qav/internal/transport/delay",
		"runtime.mallocgc":                     "runtime",
		"main.main":                            "main",
		"qav/perfbench.paperRound":             "qav/perfbench",
		"internal/runtime/maps.(*Map).Get":     "internal/runtime/maps",
		"syscall.Syscall6":                     "syscall",
		"qav/internal/netio.(*shard).pump":     "qav/internal/netio",
		"qav/internal/core.(*Controller).Tick": "qav/internal/core",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestChargeStack pins the charging rule: the innermost repository frame
// decides, so runtime work done on a layer's behalf is that layer's.
func TestChargeStack(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("runtime.mapaccess2", "/go/src/runtime/map.go"), f("qav/internal/rap.(*Sender).OnAck", "/src/internal/rap/rap.go")}, layTransport},
		{[]frame{f("runtime.mallocgc", "malloc.go"), f("qav/internal/sim.(*Engine).schedule", "/x/internal/sim/engine.go"), f("qav/internal/sim.(*Link).Offer", "/x/internal/sim/link.go")}, laySimSched},
		{[]frame{f("qav/internal/sim.(*DropTail).Enqueue", "/x/internal/sim/queue.go")}, laySimLink},
		{[]frame{f("qav/internal/sim.(*calQueue).push", "/x/internal/sim/calqueue.go")}, laySimSched},
		{[]frame{f("qav/internal/transport/delay.(*Controller).OnAck", "/x/internal/transport/delay/delay.go")}, layTransport},
		{[]frame{f("qav/internal/tcp.(*Source).recvAck", "/x/internal/tcp/tcp.go")}, layTCP},
		{[]frame{f("math.Pow", "pow.go"), f("qav/internal/core.BufTotal", "/x/internal/core/formula.go")}, layCore},
		{[]frame{f("qav/internal/figures.Figure11", "/x/internal/figures/figures.go")}, layScenario},
		{[]frame{f("qav/internal/metrics.(*Histogram).Observe", "/x/internal/metrics/histogram.go"), f("qav/internal/netio.(*shard).flush", "/x/internal/netio/mserver.go")}, layScenario},
		{[]frame{f("syscall.Syscall6", "syscall.go"), f("qav/internal/netio.(*mmsgConn).WriteBatch", "/x/internal/netio/batch_mmsg.go"), f("qav/internal/netio.(*shard).flush", "/x/internal/netio/mserver.go")}, layBatch},
		{[]frame{f("qav/internal/netio.ListenReuseport", "/x/internal/netio/reuseport_linux.go")}, layBatch},
		{[]frame{f("qav/internal/netio.EncodeData", "/x/internal/netio/wire.go"), f("qav/internal/netio.(*session).buildPacket", "/x/internal/netio/session.go")}, layWire},
		{[]frame{f("qav/internal/netio.(*seqRing).put", "/x/internal/netio/seqring.go")}, laySession},
		{[]frame{f("qav/internal/netio.(*wheel).pump", "/x/internal/netio/wheel.go")}, layPacer},
		{[]frame{f("qav/internal/netio.RunLoad", "/x/internal/netio/loadgen.go")}, layOther},
		{[]frame{f("qav/perfbench.paperRound", "/x/perfbench/sim.go")}, layOther},
		{[]frame{f("runtime.gcBgMarkWorker", "mgc.go"), f("runtime.goexit", "asm.s")}, layRuntime},
		{nil, layRuntime},
	}
	for i, c := range cases {
		if got := chargeStack(c.stack); got != c.want {
			t.Errorf("case %d: charged to %q, want %q", i, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestParseCPUProfile decodes a real runtime/pprof profile and charges
// it: the samples must sum to the profile's CPU and land on this
// package's spinning frame.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) == 0 {
		t.Skip("no samples collected (CPU starved)")
	}
	byLayer, total := p.chargeLayers()
	var sum int64
	for _, v := range byLayer {
		sum += v
	}
	if total <= 0 || sum != total {
		t.Fatalf("layers sum to %d of %d ns", sum, total)
	}
	found := false
	for _, st := range p.stacks {
		for _, fr := range st {
			if strings.HasSuffix(fr.fn, ".spin") && strings.HasSuffix(fr.file, "perfbench_test.go") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample names the spin function")
	}
	if byLayer[layOther] == 0 {
		t.Errorf("spinning in the benchmark package charged nothing to %q: %v", layOther, byLayer)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python: statistics.quantiles(data, n=4).
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0}, 2.15, 7.45},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestPercentileSorted(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]int64{0: 1, 0.5: 5, 0.9: 9, 0.99: 10, 1: 10} {
		if got := percentileSorted(s, q); got != want {
			t.Errorf("percentile %v = %d, want %d", q, got, want)
		}
	}
	if percentileSorted(nil, 0.5) != 0 {
		t.Error("empty input must give 0")
	}
}

// TestDelayAboveFloor: each session's clock offset cancels against its
// own minimum, whatever the offset.
func TestDelayAboveFloor(t *testing.T) {
	sess := []int32{0, 0, 0, 1, 1, 1}
	raw := []int64{1_000_100, 1_000_000, 1_000_300, -5_000, -4_990, -4_000}
	got := delayAboveFloor(sess, raw)
	want := []int64{0, 0, 10, 100, 300, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delays = %v, want %v", got, want)
		}
	}
}

func TestJain(t *testing.T) {
	if j := jain([]float64{3, 3, 3, 3}); math.Abs(j-1) > 1e-15 {
		t.Errorf("equal shares: %v, want 1", j)
	}
	if j := jain([]float64{8, 0, 0, 0}); math.Abs(j-0.25) > 1e-15 {
		t.Errorf("one hog of four: %v, want 0.25", j)
	}
	if j := jain(nil); j != 0 {
		t.Errorf("empty: %v, want 0", j)
	}
	if j := jain([]float64{0, 0}); j != 0 {
		t.Errorf("all zero: %v, want 0", j)
	}
}

// TestDropEfficiency recomputes Table 1's efficiency by hand and agrees
// with the program's own computation on the same event log.
func TestDropEfficiency(t *testing.T) {
	events := []core.Event{
		{Kind: core.EvAddLayer},
		{Kind: core.EvDropLayer, BufTotal: 100, BufDrop: 10},
		{Kind: core.EvBackoff},
		{Kind: core.EvDropLayer, BufTotal: 0, BufDrop: 0},
		{Kind: core.EvDropLayer, BufTotal: 50, BufDrop: 50},
	}
	eff, drops := dropEfficiency(events)
	if drops != 3 || math.Abs(eff-(0.9+1+0)/3) > 1e-15 {
		t.Fatalf("efficiency %v over %d drops, want %v over 3", eff, drops, (0.9+1.0)/3)
	}
	if st := trace.ComputeDropStats(events); math.Abs(st.AvgEfficiency-eff) > 1e-15 || st.Drops != drops {
		t.Errorf("program computes %v over %d drops", st.AvgEfficiency, st.Drops)
	}
	if eff, drops := dropEfficiency(nil); eff != 1 || drops != 0 {
		t.Errorf("no drops: %v over %d, want 1 over 0", eff, drops)
	}
}

func TestTimeAvg(t *testing.T) {
	s := &trace.Series{T: []float64{0, 1, 2, 3}, V: []float64{1, 3, 5, 7}}
	if got := timeAvg(s, 0.5, 2.5); math.Abs(got-3) > 1e-12 {
		t.Errorf("timeAvg = %v, want 3", got)
	}
	if got := timeAvg(s, 10, 20); got != 7 {
		t.Errorf("past the last sample = %v, want the last value 7", got)
	}
	if got := timeAvg(&trace.Series{}, 0, 1); got != 0 {
		t.Errorf("empty series = %v, want 0", got)
	}
}

func TestHierarchy(t *testing.T) {
	if !hierarchical([]int64{10000, 9000, 9000 + hierarchySlack, 0}) {
		t.Error("within slack must pass")
	}
	if hierarchical([]int64{10000, 9000, 9001 + hierarchySlack}) {
		t.Error("beyond slack must fail")
	}
	if !baseProtected([]int64{5, 5, 1}) || baseProtected([]int64{5, 6}) {
		t.Error("base protection misjudged")
	}
}

// TestSessionAddr: every session has a distinct address that maps back
// to it, and foreign addresses map to none.
func TestSessionAddr(t *testing.T) {
	seen := map[netip.Addr]bool{}
	for i := 0; i < 2000; i++ {
		a := sessionAddr(i)
		if seen[a] {
			t.Fatalf("address %v reused", a)
		}
		seen[a] = true
		if j, ok := sessionIndex(a); !ok || j != i {
			t.Fatalf("sessionIndex(%v) = %d, %v; want %d", a, j, ok, i)
		}
	}
	for _, s := range []string{"127.0.0.1", "10.0.1.1", "127.0.1.251", "127.0.1.0", "::1"} {
		if _, ok := sessionIndex(netip.MustParseAddr(s)); ok {
			t.Errorf("%s mapped to a session", s)
		}
	}
}

// TestAddressTagging sends from a session's own loopback address through
// a wildcard socket and reads the reply's destination tag back.
func TestAddressTagging(t *testing.T) {
	srv, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := listenTagged()
	if err != nil {
		t.Skipf("IP_PKTINFO unavailable: %v", err)
	}
	defer cl.Close()
	want := sessionAddr(7)
	dst := netip.MustParseAddrPort(srv.LocalAddr().String())
	if _, _, err := cl.WriteMsgUDPAddrPort([]byte("join"), pktinfoOOB(want), dst); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	srv.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, from, err := srv.ReadFromUDPAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	if from.Addr() != want {
		t.Fatalf("server saw source %v, want %v", from.Addr(), want)
	}
	if _, err := srv.WriteToUDPAddrPort([]byte("data"), from); err != nil {
		t.Fatal(err)
	}
	oob := make([]byte, 128)
	cl.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, oobn, _, _, err := cl.ReadMsgUDPAddrPort(buf, oob)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := pktinfoDst(oob[:oobn])
	if !ok || got != want {
		t.Fatalf("reply tagged %v (%v), want %v", got, ok, want)
	}
	if _, ok := pktinfoDst([]byte{1, 2, 3}); ok {
		t.Error("garbage control message decoded")
	}
}

// TestWireAgreesWithNetio: the generator's own codec speaks the
// program's wire format.
func TestWireAgreesWithNetio(t *testing.T) {
	ours := encodeAck(make([]byte, ackLen), 123456789, 987654321)
	theirs := make([]byte, netio.AckLen)
	n, err := netio.EncodeAck(theirs, netio.Ack{AckSeq: 123456789, EchoMicros: 987654321, NackLayer: netio.NoNack})
	if err != nil || !bytes.Equal(ours, theirs[:n]) {
		t.Errorf("ack %x, netio %x (%v)", ours, theirs[:n], err)
	}
	req := encodeReq(make([]byte, reqLen), 2500*time.Millisecond)
	nreq := make([]byte, netio.ReqLen)
	n, err = netio.EncodeReq(nreq, netio.Req{DurationMs: 2500})
	if err != nil || !bytes.Equal(req, nreq[:n]) {
		t.Errorf("req %x, netio %x (%v)", req, nreq[:n], err)
	}
	pkt := make([]byte, 512)
	payload := make([]byte, 512-netio.DataHeaderLen)
	n, err = netio.EncodeData(pkt, netio.DataHeader{Seq: 42, Layer: 3, LayerOff: 4096, SendMicros: 777}, payload)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := decodeData(pkt[:n])
	if !ok || h.seq != 42 || h.layer != 3 || h.sendMicros != 777 || h.payload != len(payload) {
		t.Errorf("decoded %+v ok=%v", h, ok)
	}
	if _, ok := decodeData(pkt[:n-1]); ok {
		t.Error("truncated packet decoded")
	}
	if _, ok := decodeData(theirs[:netio.AckLen]); ok {
		t.Error("ack decoded as data")
	}
}

// TestGeneratorAgainstServer runs a short load round against an
// in-process server: every session joins from its own address, gets
// data, and every datagram decodes.
func TestGeneratorAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sockets for two seconds")
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	srv, err := netio.NewMultiServer(conn, netio.MultiConfig{
		QA:  core.Params{C: serveC, Kmax: serveKmax, MaxLayers: serveLayers, StartupSec: 0.5},
		RAP: rap.Config{PacketSize: servePkt, MaxRate: 16_000, InitialRTT: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()
	defer func() {
		cancel()
		<-served
	}()
	cfg := genConfig{
		server:     netip.MustParseAddrPort(srv.Addr()),
		sessions:   8,
		joinWindow: 200 * time.Millisecond,
		streamDur:  3 * time.Second,
		winStart:   time.Second,
		winEnd:     2 * time.Second,
		seed:       1,
	}
	res, err := runGenerator(cfg, time.Now(), serveLayers)
	if err != nil {
		t.Fatal(err)
	}
	if res.bad != 0 || res.badLayer != 0 || res.stray != 0 {
		t.Errorf("bad %d, bad layer %d, stray %d", res.bad, res.badLayer, res.stray)
	}
	if res.sockets > runtime.NumCPU() {
		t.Errorf("%d sockets and I/O goroutines on %d CPUs", res.sockets, runtime.NumCPU())
	}
	for _, s := range res.sess {
		if s.firstData < 0 || s.winPkts == 0 {
			t.Errorf("session %d: first data %v, %d packets in the window", s.idx, s.firstData, s.winPkts)
		}
	}
	if st := srv.Stats(); st.Accepted != int64(cfg.sessions) {
		t.Errorf("server accepted %d clients, want %d distinct ones", st.Accepted, cfg.sessions)
	}
}

// TestProbeScaling: work done while the probe ran at half the reference
// host's speed counts half as long.
func TestProbeScaling(t *testing.T) {
	slow := probeCost{wall: 2 * probeRef, cpu: 4 * probeRef}
	if got := slow.scaleWall(10 * time.Second); math.Abs(got-5) > 1e-12 {
		t.Errorf("scaleWall = %v, want 5", got)
	}
	if got := slow.scaleCPU(10 * time.Second); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("scaleCPU = %v, want 2.5", got)
	}
	m := medianProbe([]probeCost{{wall: 100, cpu: 300}, {wall: 300, cpu: 100}, {wall: 200, cpu: 900}})
	if m.wall != 200 || m.cpu != 300 {
		t.Errorf("medianProbe = %+v, want wall 200 cpu 300", m)
	}
}
