package main

import (
	"math/rand"
	"time"

	"qav/internal/core"
	"qav/internal/netio"
	"qav/internal/sim"
)

// Public-function timings: each public entry point is called in a tight
// loop on inputs shaped like the workload, in microReps batches of
// microIters calls, and the median batch's time per call is reported.
const (
	microReps  = 5
	microIters = 200_000
)

// microShape gives the timings the workload's shape: the QA flow's
// per-layer rate, its mean transmission rate and round-trip time, and
// the event-queue depth the workload ran at.
type microShape struct {
	consumption, rate, rtt float64
	depth                  int
}

// microSink keeps the timed calls' results live.
var microSink int64

// timePerCall runs fn(microIters) microReps times and returns the median
// nanoseconds per call.
func timePerCall(fn func(n int)) float64 {
	var per []float64
	for r := 0; r < microReps; r++ {
		t0 := time.Now()
		fn(microIters)
		per = append(per, float64(time.Since(t0).Nanoseconds())/microIters)
	}
	return median(per)
}

// setMicro records every public-function timing on rep.
func setMicro(rep *report, seed int64, sh microShape) {
	const pkt = 512
	payload := make([]byte, pkt-netio.DataHeaderLen)
	buf := make([]byte, pkt)
	rep.set("wire.encode_data_ns", "ns", timePerCall(func(n int) {
		for i := 0; i < n; i++ {
			m, _ := netio.EncodeData(buf, netio.DataHeader{Seq: int64(i), Layer: uint8(i & 1), LayerOff: int64(i) * pkt, SendMicros: uint64(i)}, payload)
			microSink += int64(m)
		}
	}))
	rep.set("wire.decode_data_ns", "ns", timePerCall(func(n int) {
		for i := 0; i < n; i++ {
			h, p, _ := netio.DecodeData(buf)
			microSink += h.Seq + int64(len(p))
		}
	}))
	ack := make([]byte, netio.AckLen)
	rep.set("wire.encode_ack_ns", "ns", timePerCall(func(n int) {
		for i := 0; i < n; i++ {
			m, _ := netio.EncodeAck(ack, netio.Ack{AckSeq: int64(i), EchoMicros: uint64(i), NackLayer: netio.NoNack})
			microSink += int64(m)
		}
	}))
	rep.set("wire.decode_ack_ns", "ns", timePerCall(func(n int) {
		for i := 0; i < n; i++ {
			a, _ := netio.DecodeAck(ack)
			microSink += a.AckSeq
		}
	}))
	rep.set("qa.pick_layer_ns", "ns", pickLayerNs(sh))
	rep.set("sim.engine_hold_ns", "ns", engineHoldNs(seed, sh.depth))
}

// pickLayerNs times core.Controller.PickLayer plus OnDelivered per
// packet, driven by a RAP-like sawtooth around the shape's mean rate:
// the rate climbs one packet per RTT each RTT and halves at its peak
// (4/3 of the mean), with a backoff reported to the controller.
func pickLayerNs(sh microShape) float64 {
	const pkt = 512
	c, err := core.NewController(core.Params{C: sh.consumption, Kmax: 2, MaxLayers: 8, StartupSec: 1, MaxEvents: 4096})
	if err != nil {
		return 0
	}
	peak := sh.rate * 4 / 3
	slope := pkt / (sh.rtt * sh.rtt)
	rate, now := peak/2, 0.0
	step := func(n int) {
		for i := 0; i < n; i++ {
			dt := pkt / rate
			now += dt
			layer := c.PickLayer(now, rate, slope, pkt)
			c.OnDelivered(now, layer, pkt)
			if rate += slope * dt; rate >= peak {
				rate = peak / 2
				c.OnBackoff(now, rate, slope)
			}
			microSink += int64(layer)
		}
	}
	step(microIters) // leave start-up and reach the sawtooth's layer count
	return timePerCall(step)
}

// engineHoldNs times sim.Engine's schedule+dispatch in the classic hold
// model: the queue holds depth pending events, and each Step pops the
// earliest, whose handler schedules one replacement an exponentially
// distributed time later.
func engineHoldNs(seed int64, depth int) float64 {
	if depth < 1 {
		depth = 1
	}
	rng := rand.New(rand.NewSource(seed))
	incs := make([]float64, 1<<16)
	for i := range incs {
		incs[i] = rng.ExpFloat64()
	}
	e := sim.NewEngine()
	k := 0
	var hold func(any)
	hold = func(any) {
		e.AtFunc(e.Now()+incs[k&(len(incs)-1)], hold, nil)
		k++
	}
	for i := 0; i < depth; i++ {
		e.AtFunc(incs[i&(len(incs)-1)], hold, nil)
	}
	for i := 0; i < 2*depth; i++ {
		e.Step() // let the queue settle at its working size
	}
	return timePerCall(func(n int) {
		for i := 0; i < n; i++ {
			e.Step()
		}
	})
}
