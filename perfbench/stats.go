package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"qav/internal/core"
)

// median returns the middle of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) does (the default "exclusive"
// method), so the steadiness command agrees with any Python check of
// the same numbers. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentileSorted returns the q-quantile (0..1) of an ascending slice
// by the nearest-rank rule: the smallest value with at least q of the
// samples at or below it.
func percentileSorted(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// delayAboveFloor turns raw per-packet (receive - send) clock
// differences into delays above each session's own minimum, which
// cancels the unknown offset between the sender's and the receiver's
// clocks. sess[i] names the session of raw[i]. The result is sorted.
func delayAboveFloor(sess []int32, raw []int64) []int64 {
	floor := map[int32]int64{}
	for i, s := range sess {
		if f, ok := floor[s]; !ok || raw[i] < f {
			floor[s] = raw[i]
		}
	}
	out := make([]int64, len(raw))
	for i, s := range sess {
		out[i] = raw[i] - floor[s]
	}
	slices.Sort(out)
	return out
}

// jain is Jain's fairness index (Σx)²/(n·Σx²); 0 for an empty or
// all-zero population.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if len(xs) == 0 || sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// dropEfficiency recomputes Table 1's buffering efficiency from a
// controller's raw event log: the mean over layer drops of
// (buffered total - buffering lost with the dropped layer) / total, a
// drop with nothing buffered counting as fully efficient. It returns
// the drop count too; with no drops the efficiency is 1.
func dropEfficiency(events []core.Event) (eff float64, drops int) {
	sum := 0.0
	for _, e := range events {
		if e.Kind != core.EvDropLayer {
			continue
		}
		drops++
		if e.BufTotal > 0 {
			sum += (e.BufTotal - e.BufDrop) / e.BufTotal
		} else {
			sum++
		}
	}
	if drops == 0 {
		return 1, 0
	}
	return sum / float64(drops), drops
}

// heapSampler records the peak of the Go heap in use ("heap objects"
// bytes: live plus not yet collected) by polling runtime/metrics. Where
// that peak lands depends on where the collector's cycle stands, so the
// benchmark collects at the edges of the work it measures (Collect):
// each stretch then starts from the live heap alone. Without that, the
// peak of the same Fleet/1000 rounds on one CPU spread 14% between runs;
// with it, 1%.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

// sampleEvery is the heap sampler's polling period.
const sampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	h.peak = max(h.peak, s[0].Value.Uint64())
	h.mu.Unlock()
}

// Collect runs a garbage collection, so the work that follows starts
// from the live heap.
func (h *heapSampler) Collect() {
	runtime.GC()
	h.sample()
}

// Peak returns the largest heap seen so far, in bytes.
func (h *heapSampler) Peak() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// Reset starts a new peak from the next sample.
func (h *heapSampler) Reset() {
	h.mu.Lock()
	h.peak = 0
	h.mu.Unlock()
}

// Stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}

// selfCPU returns this process's user and system CPU time.
func selfCPU() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// procSchedCPU returns the CPU time a process's live threads have run,
// to the nanosecond, from /proc/<pid>/task/<tid>/schedstat.
func procSchedCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread has exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

// procCPU reads a process's user and system CPU time, all threads
// included, from /proc/<pid>/stat.
func procCPU(pid int) (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("malformed cpu times in /proc/%d/stat", pid)
	}
	return time.Duration(ut) * clockTick, time.Duration(st) * clockTick, nil
}

// statusField returns one "Name: value" field of /proc/<pid>/status
// (or of a task's status file) as an integer, with any unit dropped.
func statusField(path, name string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+":") {
			continue
		}
		fields := strings.Fields(line[len(name)+1:])
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("%s: no %s field", path, name)
}

// peakRSS returns a process's resident-set high-water mark (VmHWM) in
// bytes.
func peakRSS(pid int) (uint64, error) {
	kb, err := statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return uint64(kb) * 1024, err
}

// voluntarySwitches sums voluntary context switches over every thread
// of a process: each is a thread going to sleep and later waking.
func voluntarySwitches(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		n, err := statusField(t, "voluntary_ctxt_switches")
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		total += n
	}
	return total, nil
}
