package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"qav/internal/core"
	"qav/internal/netio"
	"qav/internal/rap"
)

// childArg is the hidden first argument that runs this program as the
// server child: the multi-client server under test, in its own process.
const childArg = "__serve-child"

// childSnap is the server's own account at a window mark: its metrics
// registry counters plus Go runtime figures the parent cannot read from
// /proc.
type childSnap struct {
	Sent        int64  `json:"sent"`
	Acked       int64  `json:"acked"`
	Retransmits int64  `json:"retransmits"`
	Batches     int64  `json:"batches"`
	Rejected    int64  `json:"rejected"`
	Mallocs     uint64 `json:"mallocs"`
	HeapPeak    uint64 `json:"heap_peak"`
}

// childMain serves until its standard input closes. It prints "addr
// <host:port>" once listening, and answers each "mark" or "end" line on
// standard input with "snap <json>"; with -profile, "mark" starts a CPU
// profile and "end" stops it and adds "profile <base64>".
func childMain(args []string) error {
	fs := flag.NewFlagSet(childArg, flag.ContinueOnError)
	c := fs.Float64("c", 6000, "per-layer consumption rate, B/s")
	kmax := fs.Int("kmax", 2, "smoothing factor")
	layers := fs.Int("layers", 8, "maximum encoded layers")
	pkt := fs.Int("pkt", 512, "packet size, bytes")
	maxRate := fs.Float64("max-rate", 0, "per-session rate cap, B/s (0 = none)")
	profile := fs.Bool("profile", false, "profile the CPU between mark and end")
	if err := fs.Parse(args); err != nil {
		return err
	}
	heap := startHeapSampler()
	defer heap.Stop()

	// Construct the server as qaserver does by default: the socket
	// layout, batch kind and pacer are left to the program.
	cfg := netio.MultiConfig{
		QA:  core.Params{C: *c, Kmax: *kmax, MaxLayers: *layers, StartupSec: 0.5},
		RAP: rap.Config{PacketSize: *pkt, MaxRate: *maxRate, InitialRTT: 0.05},
	}
	var srv *netio.MultiServer
	if netio.ReuseportAvailable() {
		conns, err := netio.ListenReuseport("udp", "127.0.0.1:0", netio.DefaultShards())
		if err != nil {
			return err
		}
		for _, cn := range conns {
			defer cn.Close()
		}
		if srv, err = netio.NewMultiServerConns(conns, cfg); err != nil {
			return err
		}
	} else {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return err
		}
		defer conn.Close()
		if srv, err = netio.NewMultiServer(conn, cfg); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()

	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "addr %s\n", srv.Addr())
	if err := out.Flush(); err != nil {
		cancel()
		return err
	}
	snap := func() childSnap {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st := srv.Stats()
		s := srv.Metrics().Snapshot()
		return childSnap{
			Sent:        st.SentPkts,
			Acked:       st.AckedPkts,
			Retransmits: st.Retransmits,
			Batches:     s.Histograms["srv.batchsz"].Count,
			Rejected:    st.Rejected,
			Mallocs:     ms.Mallocs,
			HeapPeak:    heap.Peak(),
		}
	}
	var prof bytes.Buffer
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd := strings.TrimSpace(in.Text())
		if cmd == "end" && *profile {
			pprof.StopCPUProfile()
		}
		b, err := json.Marshal(snap())
		if err != nil {
			cancel()
			return err
		}
		fmt.Fprintf(out, "snap %s\n", b)
		if cmd == "mark" {
			// The heap peak the parent reports is the steady window's,
			// from the live heap at its start. The parent reads this
			// process's CPU after this reply, so the collection is not
			// counted in the window.
			heap.Reset()
			heap.Collect()
		}
		if cmd == "mark" && *profile {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				cancel()
				return err
			}
		}
		if cmd == "end" && *profile {
			fmt.Fprintf(out, "profile %s\n", base64.StdEncoding.EncodeToString(prof.Bytes()))
		}
		if err := out.Flush(); err != nil {
			cancel()
			return err
		}
	}
	cancel()
	if err := <-served; err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// serverChild is the parent's handle on a running server child.
type serverChild struct {
	cmd   *exec.Cmd
	pid   int
	stdin io.WriteCloser
	lines chan string // the child's stdout, line by line
	addr  string
	once  sync.Once
}

// children tracks live server children so every exit path can stop them.
var (
	childMu  sync.Mutex
	children = map[*serverChild]bool{}
)

// stopChildren kills every live server child and waits for it.
func stopChildren() {
	childMu.Lock()
	var live []*serverChild
	for c := range children {
		live = append(live, c)
	}
	childMu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// childTimeout bounds every wait on the server child.
const childTimeout = 10 * time.Second

// startChild launches the server child with the given flags and waits
// for it to report its listening address.
func startChild(args ...string) (*serverChild, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{childArg}, args...)...)
	cmd.Stderr = os.Stderr
	// The kernel kills the child if this process dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startOn(cmd, childCPUs); err != nil {
		return nil, err
	}
	c := &serverChild{cmd: cmd, pid: cmd.Process.Pid, stdin: stdin, lines: make(chan string, 1)}
	childMu.Lock()
	children[c] = true
	childMu.Unlock()
	go func() {
		// Ends when the child's stdout closes, which kill and stop wait for.
		defer close(c.lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<16), 1<<28) // the profile line can be megabytes
		for sc.Scan() {
			c.lines <- sc.Text()
		}
	}()
	line, err := c.next("addr ")
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("server child did not report its address: %w", err)
	}
	c.addr = line
	return c, nil
}

// next returns the payload of the child's next output line, which must
// start with prefix.
func (c *serverChild) next(prefix string) (string, error) {
	select {
	case line, ok := <-c.lines:
		if !ok {
			return "", errors.New("server child exited")
		}
		if !strings.HasPrefix(line, prefix) {
			return "", fmt.Errorf("server child said %q, want %q", line, strings.TrimSpace(prefix))
		}
		return line[len(prefix):], nil
	case <-time.After(childTimeout):
		return "", fmt.Errorf("server child silent for %v", childTimeout)
	}
}

// mark sends a window command ("mark" or "end") and returns the
// server's snapshot.
func (c *serverChild) mark(cmd string) (childSnap, error) {
	var s childSnap
	if _, err := fmt.Fprintln(c.stdin, cmd); err != nil {
		return s, err
	}
	line, err := c.next("snap ")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal([]byte(line), &s)
}

// profile reads the CPU profile the child sends after "end".
func (c *serverChild) profile() ([]byte, error) {
	line, err := c.next("profile ")
	if err != nil {
		return nil, err
	}
	return base64.StdEncoding.DecodeString(line)
}

// stop asks the child to exit by closing its input and waits for it,
// killing it if it does not exit in time.
func (c *serverChild) stop() error {
	c.stdin.Close()
	done := make(chan error, 1)
	go func() {
		for range c.lines {
		}
		done <- nil
	}()
	select {
	case <-done:
	case <-time.After(childTimeout):
		c.kill()
		return fmt.Errorf("server child did not exit within %v", childTimeout)
	}
	var err error
	c.once.Do(func() {
		err = c.cmd.Wait()
		childMu.Lock()
		delete(children, c)
		childMu.Unlock()
	})
	return err
}

// kill ends the child at once and waits for it.
func (c *serverChild) kill() {
	c.once.Do(func() {
		c.cmd.Process.Kill()
		c.cmd.Wait()
		childMu.Lock()
		delete(children, c)
		childMu.Unlock()
	})
}
