package main

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"time"
)

// The host this benchmark runs on may be a virtual machine whose speed
// drifts by a factor of two within minutes (neighbours, hypervisor
// steal). So every untraced run times a fixed probe several times, next
// to its set-ups and its rounds or window (a serving run's on the
// server's CPU, see affinity.go), and reports the metrics that measure
// host speed scaled to a reference host, on which the probe takes
// probeRef of wall and of CPU time:
//
//	scaled time = measured time × probeRef / median probe time
//
// A run's median work is scaled by its median probe, not each round by
// the probes next to it: one probe pass is a sample of a fraction of a
// second, and pairing it with a round of seconds added more noise than
// it took away (the paper workload's spread over five runs doubled).
//
// The probe uses none of the program's code and runs in a process of
// its own, so no change to the program can change it, and its memory
// never shows in the benchmark's heap or resident set.

// probeArg is the hidden first argument that runs the probe.
const probeArg = "__probe"

// probeRef is the probe's time on the reference host.
const probeRef = 250 * time.Millisecond

// probeCost is one probe's wall and CPU time.
type probeCost struct {
	wall, cpu time.Duration
}

// probeMain runs the probe's kernel once to settle its memory, then
// times one more pass and prints "probe <wall ns> <cpu ns>".
func probeMain() error {
	k := newProbeKernel()
	k.run()
	u0, s0 := selfCPU()
	t0 := time.Now()
	k.run()
	wall := time.Since(t0)
	u1, s1 := selfCPU()
	_, err := fmt.Printf("probe %d %d\n", wall.Nanoseconds(), (u1 + s1 - u0 - s0).Nanoseconds())
	return err
}

// hostProbe runs the probe in a child process and returns its cost.
func hostProbe() (probeCost, error) {
	self, err := os.Executable()
	if err != nil {
		return probeCost{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// On the CPUs server children run on, if a serving run pinned them
	// apart; otherwise on this process's.
	cmd := exec.CommandContext(ctx, self, probeArg)
	var stdout strings.Builder
	cmd.Stdout = &stdout
	err = startOn(cmd, childCPUs)
	if err == nil {
		err = cmd.Wait()
	}
	if err != nil {
		return probeCost{}, fmt.Errorf("host probe: %w", err)
	}
	out := stdout.String()
	var wall, cpu int64
	if _, err := fmt.Sscanf(strings.TrimSpace(out), "probe %d %d", &wall, &cpu); err != nil {
		return probeCost{}, fmt.Errorf("host probe said %q: %w", out, err)
	}
	return probeCost{time.Duration(wall), time.Duration(cpu)}, nil
}

// medianProbe is the median wall and the median CPU time of probes.
func medianProbe(probes []probeCost) probeCost {
	var wall, cpu []float64
	for _, p := range probes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
	}
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	return probeCost{sec(median(wall)), sec(median(cpu))}
}

// scaleWall and scaleCPU turn a measured time into the reference host's.
func (p probeCost) scaleWall(d time.Duration) float64 {
	return d.Seconds() * probeRef.Seconds() / p.wall.Seconds()
}

func (p probeCost) scaleCPU(d time.Duration) float64 {
	return d.Seconds() * probeRef.Seconds() / p.cpu.Seconds()
}

// noteProbes prints the probes a run took.
func noteProbes(rep *report, probes []probeCost) {
	var b strings.Builder
	for _, p := range probes {
		fmt.Fprintf(&b, " %.3f/%.3f", p.wall.Seconds(), p.cpu.Seconds())
	}
	rep.note("host probes, wall/cpu s (reference host %.3f):%s", probeRef.Seconds(), b.String())
}

// probeKernel is the probe's fixed work, the mix a simulator or a
// server does per packet: a priority queue of pending events, map
// churn, and scattered updates over a working set larger than a core's
// private caches.
type probeKernel struct {
	mem []uint64
}

type probeEvent struct {
	t  float64
	id int32
}

type probeHeap []probeEvent

func (h probeHeap) Len() int           { return len(h) }
func (h probeHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h probeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x any)        { *h = append(*h, x.(probeEvent)) }
func (h *probeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func newProbeKernel() *probeKernel {
	k := &probeKernel{mem: make([]uint64, 4<<20)} // 32 MiB
	for i := range k.mem {
		k.mem[i] = uint64(i)
	}
	return k
}

var probeSink uint64

func (k *probeKernel) run() {
	rng := rand.New(rand.NewSource(1))
	h := make(probeHeap, 0, 1<<14)
	for i := 0; i < 1<<14; i++ {
		h = append(h, probeEvent{t: rng.Float64(), id: int32(i)})
	}
	heap.Init(&h)
	m := make(map[int64]int32, 1<<16)
	x := uint64(88172645463325252)
	for i := 0; i < 1<<18; i++ {
		e := heap.Pop(&h).(probeEvent)
		e.t += rng.ExpFloat64()
		heap.Push(&h, e)
		key := int64(e.id)<<3 | int64(i&7)
		if _, ok := m[key]; ok {
			delete(m, key)
		} else {
			m[key] = e.id
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.mem[x&(4<<20-1)] += uint64(i)
	}
	probeSink += uint64(len(m)) + k.mem[x&1023]
}
