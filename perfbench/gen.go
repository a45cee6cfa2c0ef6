package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The load generator emulates many viewers from one process with at
// most nproc sockets and nproc I/O goroutines. Each session has its own
// loopback source address: a wildcard-bound UDP socket sends with an
// IP_PKTINFO control message naming 127.0.x.y as the source, and the
// server's replies come back tagged with that destination address, so
// the server sees as many distinct clients as there are sessions. The
// generator speaks the wire format itself (stdlib sockets only, its own
// encoder and decoder), so no change to the server's code can change
// the load it offers.

// Wire format constants, from the protocol's specification.
const (
	wireMagic      = 0x5156
	wireVersion    = 1
	wireKindData   = 0
	wireKindAck    = 1
	wireKindReq    = 2
	dataHeaderLen  = 31
	ackLen         = 33
	reqLen         = 8
	noNack         = 0xFF
	maxWireLayers  = 16 // the bitmask width of a session's per-second layer record
	sessionsPerNet = 250
)

// sessionAddr is session i's loopback source address: 127.0.x.y with
// x, y in 1..250, leaving 127.0.0.0/24 (the server's) alone.
func sessionAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{127, 0, byte(1 + i/sessionsPerNet), byte(1 + i%sessionsPerNet)})
}

// sessionIndex inverts sessionAddr; ok is false for other addresses.
func sessionIndex(a netip.Addr) (int, bool) {
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	if b[0] != 127 || b[1] != 0 || b[2] < 1 || b[3] < 1 || b[3] > sessionsPerNet {
		return 0, false
	}
	return int(b[2]-1)*sessionsPerNet + int(b[3]-1), true
}

// pktinfoOOB builds the IP_PKTINFO control message that sends a
// datagram from src.
func pktinfoOOB(src netip.Addr) []byte {
	oob := make([]byte, syscall.CmsgSpace(syscall.SizeofInet4Pktinfo))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level = syscall.IPPROTO_IP
	h.Type = syscall.IP_PKTINFO
	h.SetLen(syscall.CmsgLen(syscall.SizeofInet4Pktinfo))
	pi := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&oob[syscall.CmsgLen(0)]))
	pi.Spec_dst = src.As4()
	return oob
}

// cmsgData returns the data of the first control message in oob with
// the given level and type, and at least size bytes of it.
func cmsgData(oob []byte, level, typ int32, size int) ([]byte, bool) {
	for len(oob) >= syscall.CmsgLen(0) {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		l := int(h.Len)
		if l < syscall.CmsgLen(0) || l > len(oob) {
			return nil, false
		}
		if h.Level == level && h.Type == typ && l >= syscall.CmsgLen(size) {
			return oob[syscall.CmsgLen(0):l], true
		}
		next := syscall.CmsgSpace(l - syscall.CmsgLen(0))
		if next > len(oob) {
			break
		}
		oob = oob[next:]
	}
	return nil, false
}

// pktinfoDst returns the destination address an IP_PKTINFO control
// message reports for a received datagram.
func pktinfoDst(oob []byte) (netip.Addr, bool) {
	d, ok := cmsgData(oob, syscall.IPPROTO_IP, syscall.IP_PKTINFO, syscall.SizeofInet4Pktinfo)
	if !ok {
		return netip.Addr{}, false
	}
	pi := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&d[0]))
	return netip.AddrFrom4(pi.Addr), true
}

// rxStamp returns the kernel's receive time of a datagram, Unix ns,
// from its SO_TIMESTAMPNS control message.
func rxStamp(oob []byte) (int64, bool) {
	d, ok := cmsgData(oob, syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, int(unsafe.Sizeof(syscall.Timespec{})))
	if !ok {
		return 0, false
	}
	ts := (*syscall.Timespec)(unsafe.Pointer(&d[0]))
	return ts.Nano(), true
}

// listenTagged opens a wildcard-bound UDP socket that receives
// destination-address control messages and may send from any loopback
// address.
func listenTagged() (*net.UDPConn, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{})
	if err != nil {
		return nil, err
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1)
		if serr == nil {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
		}
	}); err != nil {
		serr = err
	}
	if serr != nil {
		conn.Close()
		return nil, fmt.Errorf("IP_PKTINFO, SO_TIMESTAMPNS: %w", serr)
	}
	// One socket stands in for hundreds of viewers, each of which would
	// have a receive buffer of its own; give it room for their bursts.
	// The kernel caps the size at its own limit.
	if err := conn.SetReadBuffer(genReadBuffer); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// dataHeader is a decoded data packet header.
type dataHeader struct {
	seq        int64
	layer      int
	sendMicros int64
	payload    int
}

// decodeData parses one data datagram by the wire specification.
func decodeData(b []byte) (dataHeader, bool) {
	var h dataHeader
	if len(b) < dataHeaderLen || binary.BigEndian.Uint16(b) != wireMagic || b[2] != wireVersion || b[3] != wireKindData {
		return h, false
	}
	h.seq = int64(binary.BigEndian.Uint64(b[4:]))
	h.layer = int(b[12])
	h.sendMicros = int64(binary.BigEndian.Uint64(b[21:]))
	h.payload = int(binary.BigEndian.Uint16(b[29:]))
	return h, len(b) >= dataHeaderLen+h.payload
}

// encodeAck writes the acknowledgement of seq, echoing its send stamp,
// with no retransmission request.
func encodeAck(b []byte, seq, echo int64) []byte {
	b = b[:ackLen]
	binary.BigEndian.PutUint16(b, wireMagic)
	b[2], b[3] = wireVersion, wireKindAck
	binary.BigEndian.PutUint64(b[4:], uint64(seq))
	binary.BigEndian.PutUint64(b[12:], uint64(echo))
	b[20] = noNack
	binary.BigEndian.PutUint64(b[21:], 0)
	binary.BigEndian.PutUint32(b[29:], 0)
	return b
}

// encodeReq writes a stream request for dur.
func encodeReq(b []byte, dur time.Duration) []byte {
	b = b[:reqLen]
	binary.BigEndian.PutUint16(b, wireMagic)
	b[2], b[3] = wireVersion, wireKindReq
	binary.BigEndian.PutUint32(b[4:], uint32(dur/time.Millisecond))
	return b
}

// genConfig is one load run: when sessions join, how long they ask to
// be streamed to, and the steady window the metrics cover. Times are
// offsets from the generator's start.
type genConfig struct {
	server     netip.AddrPort
	sessions   int
	joinWindow time.Duration
	streamDur  time.Duration
	winStart   time.Duration
	winEnd     time.Duration
	seed       int64
}

// genSession is one emulated viewer's record.
type genSession struct {
	idx       int
	oob       []byte
	joinAt    time.Duration // scheduled join
	sentAt    time.Duration // first request actually sent; -1 before
	lastReq   time.Duration
	firstData time.Duration // -1 before the first data packet
	pkts      int64
	bytes     int64                // wire bytes, whole stream
	layerPay  [maxWireLayers]int64 // payload bytes per layer, whole stream
	winPkts   int64
	winBytes  int64    // wire bytes in the window
	winPay    int64    // payload bytes in the window
	bins      []uint16 // per whole second of the window: layers received
}

// genResult is what a load run observed.
type genResult struct {
	sess      []*genSession
	bad       int64   // datagrams that did not decode
	badLayer  int64   // data packets naming a layer at or past the maximum
	stray     int64   // datagrams for an address no session owns
	perSec    []int64 // packets received by all sessions in each whole second of the window
	delaySess []int32
	delayRaw  []int64 // receive minus send stamp, µs, window packets only
	sockets   int     // sockets, each served by one I/O goroutine
}

// genPartial is one worker's share of a genResult.
type genPartial struct {
	bad, badLayer, stray int64
	perSec               []int64 // packets received in each whole second of the window
	sess                 []int32
	raw                  []int64
	err                  error
}

// genReadBuffer is the receive buffer each generator socket asks for.
const genReadBuffer = 4 << 20

// reRequest is how long a session waits for data before asking again
// (a join can be lost like any datagram).
const reRequest = 500 * time.Millisecond

// runGenerator drives one load run from start until cfg.winEnd and
// returns what every session received. maxLayer is the server's layer
// count; packets at or above it are counted as malformed.
func runGenerator(cfg genConfig, start time.Time, maxLayer int) (*genResult, error) {
	if cfg.sessions > 254*sessionsPerNet {
		return nil, fmt.Errorf("at most %d sessions", 254*sessionsPerNet)
	}
	nsock := runtime.NumCPU()
	if nsock > cfg.sessions {
		nsock = cfg.sessions
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	res := &genResult{sess: make([]*genSession, cfg.sessions), sockets: nsock}
	nbins := int((cfg.winEnd - cfg.winStart) / time.Second)
	for i := range res.sess {
		res.sess[i] = &genSession{
			idx:       i,
			oob:       pktinfoOOB(sessionAddr(i)),
			joinAt:    time.Duration(rng.Int63n(int64(cfg.joinWindow))),
			sentAt:    -1,
			firstData: -1,
			bins:      make([]uint16, nbins),
		}
	}
	conns := make([]*net.UDPConn, nsock)
	for w := range conns {
		c, err := listenTagged()
		if err != nil {
			for _, c := range conns[:w] {
				c.Close()
			}
			return nil, err
		}
		conns[w] = c
	}
	parts := make([]genPartial, nsock)
	var wg sync.WaitGroup
	for w := 0; w < nsock; w++ {
		var mine []*genSession
		for i := w; i < cfg.sessions; i += nsock {
			mine = append(mine, res.sess[i])
		}
		wg.Add(1)
		go func(w int, mine []*genSession) {
			defer wg.Done()
			p := &parts[w]
			p.err = genWorker(conns[w], cfg, start, maxLayer, mine, res.sess, nsock, w, p)
		}(w, mine)
	}
	wg.Wait()
	for _, c := range conns {
		c.Close()
	}
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		res.bad += p.bad
		res.badLayer += p.badLayer
		res.stray += p.stray
		if res.perSec == nil {
			res.perSec = make([]int64, len(p.perSec))
		}
		for i, n := range p.perSec {
			res.perSec[i] += n
		}
		res.delaySess = append(res.delaySess, p.sess...)
		res.delayRaw = append(res.delayRaw, p.raw...)
	}
	return res, nil
}

// ackEvery is the generator's read tick. Each worker sleeps until its
// next tick, drains its socket and acknowledges every packet it read, so
// the server's ACKs arrive in one burst per socket and tick: the rate of
// the server's receive wakeups is set here, not by how the host happens
// to schedule a generator that would otherwise wake and answer once per
// packet. The workers' ticks are spread evenly over the period. The tick
// also gives the sessions a path whose RTT varies by the tick, as a
// viewer's across a network does: RAP's timeout has no floor (it is
// max(srtt + 4 rttvar, 2 srtt)), and with loopback's sub-millisecond RTT
// any stall of the host past a few milliseconds fired spurious timeouts
// and backoffs, which moved the server's goodput and heap from run to
// run. At 10 ms the timeout is about 15 ms, and a tick's data (about 160
// packets) fits a socket buffer of the kernel's default size.
const ackEvery = 10 * time.Millisecond

// genWorker owns one socket and the sessions sending through it: on each
// tick it issues their joins that are due, reads all their data, and
// acknowledges every packet from the session's own address.
func genWorker(conn *net.UDPConn, cfg genConfig, start time.Time, maxLayer int, mine, all []*genSession, nsock, w int, p *genPartial) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	order := append([]*genSession(nil), mine...)
	sort.Slice(order, func(a, b int) bool { return order[a].joinAt < order[b].joinAt })
	var waiting []*genSession // joined, no data yet
	type pendingAck struct {
		s         *genSession
		seq, echo int64
	}
	var acks []pendingAck
	buf := make([]byte, 2048)
	oob := make([]byte, 128)
	ack := make([]byte, ackLen)
	req := encodeReq(make([]byte, reqLen), cfg.streamDur)
	p.perSec = make([]int64, int((cfg.winEnd-cfg.winStart)/time.Second))
	p.sess = make([]int32, 0, 1<<16)
	p.raw = make([]int64, 0, 1<<16)
	startNs := start.UnixNano()
	phase := ackEvery * time.Duration(w) / time.Duration(nsock)
	tick := phase
	next := 0
	for {
		time.Sleep(time.Until(start.Add(tick)))
		now := time.Since(start)
		if now >= cfg.winEnd {
			return nil
		}
		for ; next < len(order) && order[next].joinAt <= now; next++ {
			s := order[next]
			if _, _, err := conn.WriteMsgUDPAddrPort(req, s.oob, cfg.server); err != nil {
				return fmt.Errorf("join: %w", err)
			}
			s.sentAt, s.lastReq = now, now
			waiting = append(waiting, s)
		}
		for i := 0; i < len(waiting); i++ {
			s := waiting[i]
			if s.firstData >= 0 {
				waiting[i] = waiting[len(waiting)-1]
				waiting = waiting[:len(waiting)-1]
				i--
				continue
			}
			if now-s.lastReq >= reRequest {
				if _, _, err := conn.WriteMsgUDPAddrPort(req, s.oob, cfg.server); err != nil {
					return fmt.Errorf("re-join: %w", err)
				}
				s.lastReq = now
			}
		}

		// Drain the socket without waiting. A packet's receive time is
		// the kernel's stamp, so reading on a tick does not coarsen it.
		acks = acks[:0]
		var rerr error
		err := rc.Read(func(fd uintptr) bool {
			for {
				n, oobn, _, _, err := syscall.Recvmsg(int(fd), buf, oob, syscall.MSG_DONTWAIT)
				if err == syscall.EINTR {
					continue
				}
				if err != nil {
					if err != syscall.EAGAIN {
						rerr = err
					}
					return true
				}
				recv := now
				if ns, ok := rxStamp(oob[:oobn]); ok {
					recv = time.Duration(ns - startNs)
				}
				dst, ok := pktinfoDst(oob[:oobn])
				idx, mineOK := sessionIndex(dst)
				if !ok || !mineOK || idx >= len(all) || idx%nsock != w {
					p.stray++
					continue
				}
				s := all[idx]
				h, ok := decodeData(buf[:n])
				if !ok {
					p.bad++
					continue
				}
				if h.layer >= maxLayer || h.layer >= maxWireLayers {
					p.badLayer++
					continue
				}
				if s.firstData < 0 {
					s.firstData = recv
				}
				s.pkts++
				s.bytes += int64(n)
				s.layerPay[h.layer] += int64(h.payload)
				if recv >= cfg.winStart && recv < cfg.winEnd {
					s.winPkts++
					s.winBytes += int64(n)
					s.winPay += int64(h.payload)
					if b := int((recv - cfg.winStart) / time.Second); b < len(s.bins) {
						s.bins[b] |= 1 << h.layer
						p.perSec[b]++
					}
					p.sess = append(p.sess, int32(idx))
					p.raw = append(p.raw, recv.Microseconds()-h.sendMicros)
				}
				acks = append(acks, pendingAck{s, h.seq, h.sendMicros})
			}
		})
		if err == nil {
			err = rerr
		}
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
		for _, a := range acks {
			if _, _, err := conn.WriteMsgUDPAddrPort(encodeAck(ack, a.seq, a.echo), a.s.oob, cfg.server); err != nil {
				return fmt.Errorf("ack: %w", err)
			}
		}

		// The next tick after now; ticks the host made us miss are
		// skipped, not made up.
		tick += ackEvery
		if now := time.Since(start); tick <= now {
			tick += (now - tick + ackEvery) / ackEvery * ackEvery
		}
	}
}

// probeJoin joins from an address no session uses and waits for the
// first data packet: the server is up and answering. The stream asks
// for a short duration so it ends on its own.
func probeJoin(server netip.AddrPort, within time.Duration) error {
	conn, err := listenTagged()
	if err != nil {
		return err
	}
	defer conn.Close()
	oob := pktinfoOOB(netip.AddrFrom4([4]byte{127, 0, 255, 1}))
	req := encodeReq(make([]byte, reqLen), 200*time.Millisecond)
	buf := make([]byte, 2048)
	end := time.Now().Add(within)
	for time.Now().Before(end) {
		if _, _, err := conn.WriteMsgUDPAddrPort(req, oob, server); err != nil {
			return err
		}
		if err := conn.SetReadDeadline(time.Now().Add(reRequest)); err != nil {
			return err
		}
		n, _, err := conn.ReadFromUDPAddrPort(buf)
		if err == nil {
			if _, ok := decodeData(buf[:n]); ok {
				return nil
			}
		}
	}
	return fmt.Errorf("no data within %v of joining", within)
}
