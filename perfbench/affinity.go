package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// Where the work runs. On a host with two or more CPUs a serving run
// gives its processes CPUs of their own: the server child runs alone on
// the last CPU, and the benchmark process (the load generator and the
// probes) on the others. The server's timer wakeups then do not wait for
// the generator's CPU time, whose share of a busy host varies; on a
// shared host that traded 25% of the server's CPU per packet for 6%
// between a quiet and a loaded CPU.
//
// The benchmark process pins itself by re-executing itself with the
// CPUs set, so the Go runtime sizes itself (GOMAXPROCS, NumCPU) for the
// CPUs it has, as the server child does when it starts on its own CPU:
// the server picks its shard count for the CPU it is given.
//
// A simulator run is not pinned. On one CPU its Go runtime has one P,
// and the collector's mark worker then runs between the simulation's
// 10 ms time slices, so the heap grows past the collector's goal in
// proportion to the host's speed: the same rounds peaked 29% higher in
// a set of runs on which the host ran twice as fast.

// pinEnv names the environment variable that marks a re-executed,
// pinned benchmark process; its value lists the CPUs.
const pinEnv = "PERFBENCH_PINNED_CPUS"

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// threadCPUs returns the CPUs the calling thread may run on.
func threadCPUs() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, e
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// setThreadCPUs restricts the calling thread to cpus.
func setThreadCPUs(cpus []int) error {
	m := maskOf(cpus)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return e
	}
	return nil
}

// cpuPlan is the CPUs a run's processes get; nil fields mean unpinned.
type cpuPlan struct {
	self, child []int
}

// planCPUs splits the allowed CPUs for a workload. With one CPU, or for
// a simulator workload, nothing is pinned.
func planCPUs(allowed []int, serving bool) cpuPlan {
	if len(allowed) < 2 {
		return cpuPlan{}
	}
	if !serving {
		return cpuPlan{}
	}
	return cpuPlan{self: allowed[:len(allowed)-1], child: allowed[len(allowed)-1:]}
}

func formatCPUs(cpus []int) string {
	s := make([]string, len(cpus))
	for i, c := range cpus {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}

// childCPUs is the CPU set server children start on (nil: inherit).
var childCPUs []int

// pinSelf re-executes the benchmark on the plan's CPUs unless it already
// runs pinned; it returns only in the pinned (or unpinnable) process.
func pinSelf(serving bool) error {
	allowed, err := threadCPUs()
	if err != nil {
		return fmt.Errorf("CPU affinity: %w", err)
	}
	if v, ok := os.LookupEnv(pinEnv); ok {
		// Re-executed: the plan was made from the CPUs the first
		// process had, which the variable carries.
		var all []int
		for _, f := range strings.Split(v, ",") {
			if f == "" {
				continue
			}
			c, err := strconv.Atoi(f)
			if err != nil {
				return fmt.Errorf("%s=%q: %w", pinEnv, v, err)
			}
			all = append(all, c)
		}
		childCPUs = planCPUs(all, serving).child
		return nil
	}
	plan := planCPUs(allowed, serving)
	if plan.self == nil {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// The new image keeps the affinity of the thread that calls exec.
	runtime.LockOSThread()
	if err := setThreadCPUs(plan.self); err != nil {
		runtime.UnlockOSThread()
		return fmt.Errorf("CPU affinity: %w", err)
	}
	env := append(os.Environ(), pinEnv+"="+formatCPUs(allowed))
	err = syscall.Exec(self, os.Args, env)
	// Exec returned, so it failed; carry on unpinned.
	setThreadCPUs(allowed)
	runtime.UnlockOSThread()
	return fmt.Errorf("re-exec pinned: %w", err)
}

// startOn starts cmd with its process restricted to cpus (nil: as this
// process). The child inherits the affinity of the thread that forks it.
func startOn(cmd *exec.Cmd, cpus []int) error {
	if cpus == nil {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mine, err := threadCPUs()
	if err != nil {
		return err
	}
	if err := setThreadCPUs(cpus); err != nil {
		return fmt.Errorf("CPU affinity: %w", err)
	}
	err = cmd.Start()
	if rerr := setThreadCPUs(mine); err == nil && rerr != nil {
		err = rerr
	}
	return err
}
