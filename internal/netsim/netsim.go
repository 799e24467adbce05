// Package netsim provides in-process network links with configurable
// latency and bandwidth, and a registry that lets servers listen and
// clients dial by symbolic host name.
//
// The paper's evaluation runs over real 100 Mb/s and 1 Gb/s Ethernet
// and a transatlantic WAN. This package substitutes shaped in-memory
// pipes so the same experiments run on one machine: each direction of a
// link delays bytes by a one-way latency and meters them through a
// serialization-rate model (store-and-forward), which reproduces the
// round-trip amplification and bandwidth ceilings that drive Figures
// 4-5 and the SP5 table.
package netsim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// ErrReset is the error surfaced by reads and writes on a connection
// severed by a simulated partition (Network.Partition, Conn.Reset): the
// in-memory analogue of ECONNRESET. Unlike an orderly Close — which
// lets the peer drain delivered data and then read EOF, like a TCP FIN
// — a reset drops everything in flight, so an RPC caught mid-partition
// fails immediately instead of waiting on bytes that will never arrive.
var ErrReset = errors.New("netsim: connection reset by partition")

// LinkProfile describes one direction of a link.
type LinkProfile struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is the serialization rate in bytes per second;
	// zero means unlimited.
	Bandwidth int64
}

// Common profiles, matching the hardware in the paper.
var (
	// Loopback is an unshaped in-memory link.
	Loopback = LinkProfile{}
	// GigE approximates commodity gigabit Ethernet (Figures 4-6):
	// 125 MB/s serialization, 50 µs one-way latency.
	GigE = LinkProfile{Latency: 50 * time.Microsecond, Bandwidth: 125 << 20}
	// Fast100 approximates 100 Mb/s Ethernet (§8, LAN runs).
	Fast100 = LinkProfile{Latency: 100 * time.Microsecond, Bandwidth: 12_500_000}
	// WAN100 approximates the paper's ~100 Mb/s wide-area link with
	// transatlantic latency (§8, WAN/TSS run).
	WAN100 = LinkProfile{Latency: 55 * time.Millisecond, Bandwidth: 12_500_000}
)

// Addr is a symbolic network address on a simulated network.
type Addr string

// Network returns "sim".
func (Addr) Network() string { return "sim" }

// String returns the symbolic address.
func (a Addr) String() string { return string(a) }

// chunk is the record of one write: n of its bytes are still queued,
// and none of them is visible before ready.
type chunk struct {
	n     int
	ready time.Time
}

// shapedQueue is one direction of a link: a byte queue whose writes
// become visible to the reader only after latency plus serialization
// delay has elapsed. The queued bytes are buf[off:], one write after
// another, and chunks[head:] are their records. Both slices are reused
// for the link's whole life (queueAppend), so a write and its read
// allocate nothing, and the storage stays within twice the bytes ever
// in flight at once.
type shapedQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	prof     LinkProfile
	buf      []byte
	off      int
	chunks   []chunk
	head     int
	nextFree time.Time
	closed   bool
	failErr  error // non-nil after reset: reads and writes fail with it
	deadline time.Time
	// timer is the direction's one wake source, armed to fire at wake
	// (zero when it is not armed).
	timer *time.Timer
	wake  time.Time
}

// Past these capacities a drained queue gives its storage back, so an
// idle link holds no more than one bulk window's worth of buffer.
const (
	idleBufCap    = 256 << 10
	idleChunksCap = 1024
)

func newShapedQueue(prof LinkProfile) *shapedQueue {
	q := &shapedQueue{prof: prof}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// queueAppend appends v to the live part s[off:] of a queue's storage
// and returns the storage and the new offset of its live part. When s
// is full it moves the live part to the front if that frees at least
// half of s, and otherwise moves it to new storage twice the size of
// the live part after the append. So the capacity never exceeds twice
// the most ever live at once, and each element is moved a constant
// number of times on average.
func queueAppend[T any](s []T, off int, v ...T) ([]T, int) {
	if len(s)+len(v) <= cap(s) {
		return append(s, v...), off
	}
	live := len(s) - off
	if need := live + len(v); need <= cap(s)/2 {
		s = s[:copy(s, s[off:])]
	} else {
		grown := make([]T, live, 2*need)
		copy(grown, s[off:])
		s = grown
	}
	return append(s, v...), 0
}

func (q *shapedQueue) write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.failErr != nil {
		return 0, q.failErr
	}
	if q.closed {
		return 0, io.ErrClosedPipe
	}
	now := time.Now()
	start := now
	if q.nextFree.After(now) {
		start = q.nextFree
	}
	var tx time.Duration
	if q.prof.Bandwidth > 0 {
		tx = time.Duration(float64(len(p)) / float64(q.prof.Bandwidth) * float64(time.Second))
	}
	q.nextFree = start.Add(tx)
	ready := q.nextFree.Add(q.prof.Latency)
	q.buf, q.off = queueAppend(q.buf, q.off, p...)
	q.chunks, q.head = queueAppend(q.chunks, q.head, chunk{n: len(p), ready: ready})
	q.cond.Broadcast()
	return len(p), nil
}

// spinThreshold is the horizon below which a reader waiting on data
// sleeps precisely (sleepUntil) instead of parking on the timer. A Go
// timer can fire a millisecond late, which would quantize simulated
// sub-millisecond latencies and corrupt every latency figure, so a
// longer wait arms the timer for spinThreshold before the data is due
// and ends in the precise sleep too.
const spinThreshold = 2 * time.Millisecond

func (q *shapedQueue) read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.failErr != nil {
			// Reset severs the stream with loss: queued data was dropped
			// and a reader parked in this wait — even one that blocked
			// before the reset — fails immediately rather than hanging
			// on bytes that will never become ready.
			return 0, q.failErr
		}
		now := time.Now()
		// As on a TCP or net.Pipe connection, a passed deadline fails
		// the read even when data is ready.
		if !q.deadline.IsZero() && !now.Before(q.deadline) {
			return 0, os.ErrDeadlineExceeded
		}
		wake := q.deadline
		if q.head < len(q.chunks) {
			head := &q.chunks[q.head]
			if !head.ready.After(now) {
				n := copy(p, q.buf[q.off:q.off+head.n])
				q.off += n
				head.n -= n
				if head.n == 0 {
					q.head++
					if q.head == len(q.chunks) {
						q.drained()
					}
				}
				return n, nil
			}
			due := head.ready
			if wake.IsZero() || due.Before(wake) {
				if due.Sub(now) < spinThreshold {
					// Nothing can be read before due, so the sleep cannot
					// miss a write. A reset, close or new deadline is seen
					// when it ends.
					q.mu.Unlock()
					sleepUntil(due)
					q.mu.Lock()
					continue
				}
				wake = due.Add(-spinThreshold)
			}
		} else if q.closed {
			return 0, io.EOF
		}
		// A deadline is waited for on the timer, not in the precise
		// sleep: a write may come first and must wake the reader.
		if !wake.IsZero() {
			q.wakeAt(wake)
		}
		q.cond.Wait()
	}
}

// drained empties the queue for reuse once its last byte is read, and
// gives oversized storage back. Caller holds q.mu.
func (q *shapedQueue) drained() {
	q.buf, q.off = q.buf[:0], 0
	q.chunks, q.head = q.chunks[:0], 0
	if cap(q.buf) > idleBufCap {
		q.buf = nil
	}
	if cap(q.chunks) > idleChunksCap {
		q.chunks = nil
	}
}

// wakeAt makes sure the timer fires no later than t. Caller holds q.mu.
// The timer is re-armed only for an earlier time: a reader woken early
// finds nothing due, re-arms for what it still waits on and parks
// again, so a later wake never needs a second timer.
func (q *shapedQueue) wakeAt(t time.Time) {
	if !q.wake.IsZero() && !t.Before(q.wake) {
		return
	}
	q.wake = t
	if q.timer == nil {
		q.timer = time.AfterFunc(time.Until(t), q.ring)
	} else {
		q.timer.Reset(time.Until(t))
	}
}

// ring is the timer's callback. It re-acquires the mutex before
// broadcasting: a bare Broadcast could fire in the window between a
// reader computing the wake time and parking in cond.Wait, and a
// wakeup lost there would strand the reader past the chunk's ready
// time with nothing left to wake it.
func (q *shapedQueue) ring() {
	q.mu.Lock()
	q.wake = time.Time{}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// disarm stops the timer, so a closed link is not kept alive until
// its last deadline. Caller holds q.mu and broadcasts: a reader still
// waiting re-arms for what it waits on.
func (q *shapedQueue) disarm() {
	if q.timer != nil {
		q.timer.Stop()
	}
	q.wake = time.Time{}
}

func (q *shapedQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.disarm()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// reset severs the queue with loss: pending chunks are dropped and
// every current and future read or write fails with err. Used by
// partitions, where an orderly FIN would be a lie.
func (q *shapedQueue) reset(err error) {
	q.mu.Lock()
	if q.failErr == nil {
		q.failErr = err
		q.buf, q.off = nil, 0
		q.chunks, q.head = nil, 0
		q.disarm()
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// setProfile swaps the link shaping at runtime; bytes already queued
// keep the delivery times computed under the old profile, bytes written
// afterwards are shaped by the new one.
func (q *shapedQueue) setProfile(prof LinkProfile) {
	q.mu.Lock()
	q.prof = prof
	q.mu.Unlock()
}

func (q *shapedQueue) setDeadline(t time.Time) {
	q.mu.Lock()
	q.deadline = t
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Conn is one endpoint of a simulated link. It implements net.Conn.
type Conn struct {
	recv, send *shapedQueue
	local      Addr
	remote     Addr
	closeOnce  sync.Once
	// link is the registry entry for network-created connections, so
	// Close can unregister; nil for bare Pipe/PipeNamed links.
	link *link
}

var _ net.Conn = (*Conn)(nil)

// Read reads bytes that have arrived at this endpoint.
func (c *Conn) Read(p []byte) (int, error) { return c.recv.read(p) }

// Write queues bytes toward the peer, subject to the link profile.
func (c *Conn) Write(p []byte) (int, error) { return c.send.write(p) }

// Close closes both directions of the connection. The peer drains any
// delivered data and then reads EOF, like a TCP FIN.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.send.close()
		c.recv.close()
		if c.link != nil {
			c.link.net.unregister(c.link)
		}
	})
	return nil
}

// Reset severs both directions with loss: queued bytes vanish and every
// blocked or future Read/Write on either endpoint fails with ErrReset.
// This is what a partition does to a live connection.
func (c *Conn) Reset() {
	c.send.reset(ErrReset)
	c.recv.reset(ErrReset)
	if c.link != nil {
		c.link.net.unregister(c.link)
	}
}

// SetProfile reshapes this endpoint's outbound direction at runtime.
// Bytes already in flight keep their old delivery schedule.
func (c *Conn) SetProfile(prof LinkProfile) {
	c.send.setProfile(prof)
}

// LocalAddr returns the symbolic local address.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the symbolic remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.recv.setDeadline(t)
	return nil
}

// SetReadDeadline sets the read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.recv.setDeadline(t)
	return nil
}

// SetWriteDeadline is accepted and ignored: writes never block.
func (c *Conn) SetWriteDeadline(t time.Time) error { return nil }

// Pipe returns the two ends of a symmetric link with the given profile
// in each direction.
func Pipe(prof LinkProfile) (client, server *Conn) {
	return PipeNamed(prof, "client", "server")
}

// PipeNamed is Pipe with explicit endpoint names, which appear as the
// connection addresses (and hence in hostname authentication).
func PipeNamed(prof LinkProfile, clientName, serverName string) (client, server *Conn) {
	cToS := newShapedQueue(prof)
	sToC := newShapedQueue(prof)
	client = &Conn{recv: sToC, send: cToS, local: Addr(clientName), remote: Addr(serverName)}
	server = &Conn{recv: cToS, send: sToC, local: Addr(serverName), remote: Addr(clientName)}
	return client, server
}

// Network is a registry of simulated hosts: servers listen on symbolic
// addresses and clients dial them, receiving shaped connections. Beyond
// static shaping at dial time, a Network supports runtime link control —
// partitioning host pairs, healing them, and reshaping live links — so
// fault schedules can be applied to a running stack, not just baked in
// at connection setup.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*Listener
	nextID    int
	links     map[*link]struct{}
	// blocked holds partitioned unordered host pairs: dials between them
	// are refused until healed.
	blocked map[pairKey]struct{}
	// profiles holds directional shaping overrides, keyed [from, to],
	// applied on top of the profile passed to Dial/DialFrom.
	profiles map[pairKey]LinkProfile
}

// link is one live connection in the registry, with both endpoints and
// both directed queues, so partitions and reshaping can find it by host
// pair.
type link struct {
	net            *Network
	client, server string
	cToS, sToC     *shapedQueue
	c1, c2         *Conn
}

// pairKey names a host pair; order matters for profile overrides
// (directional) and is normalized by the callers for partitions
// (symmetric).
type pairKey struct{ a, b string }

func orderedPair(a, b string) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// NewNetwork returns an empty simulated network.
func NewNetwork() *Network {
	return &Network{
		listeners: make(map[string]*Listener),
		links:     make(map[*link]struct{}),
		blocked:   make(map[pairKey]struct{}),
		profiles:  make(map[pairKey]LinkProfile),
	}
}

func (n *Network) unregister(l *link) {
	n.mu.Lock()
	delete(n.links, l)
	n.mu.Unlock()
}

// Partition cuts host a from host b: every live connection between them
// is reset (blocked reads and writes fail with ErrReset immediately —
// an RPC caught mid-flight does not hang) and new dials between them
// are refused until Heal. Partitions are symmetric.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	n.blocked[orderedPair(a, b)] = struct{}{}
	victims := n.linksBetween(a, b)
	n.mu.Unlock()
	for _, l := range victims {
		l.c1.Reset()
		l.c2.Reset()
	}
}

// Heal removes the partition between a and b. Connections reset by the
// partition stay dead — like real TCP, recovery means redialing — but
// new dials succeed again.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	delete(n.blocked, orderedPair(a, b))
	n.mu.Unlock()
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	n.mu.Lock()
	n.blocked = make(map[pairKey]struct{})
	n.mu.Unlock()
}

// Partitioned reports whether hosts a and b are currently partitioned.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.blocked[orderedPair(a, b)]
	return ok
}

// SetLinkProfile reshapes traffic between a and b in both directions:
// live links switch immediately, future dials between the pair inherit
// the override regardless of the profile passed to Dial.
func (n *Network) SetLinkProfile(a, b string, prof LinkProfile) {
	n.SetLinkProfileOneWay(a, b, prof)
	n.SetLinkProfileOneWay(b, a, prof)
}

// SetLinkProfileOneWay reshapes only the from→to direction — the
// asymmetric slowness of a congested uplink. The reverse direction
// keeps its current shaping.
func (n *Network) SetLinkProfileOneWay(from, to string, prof LinkProfile) {
	n.mu.Lock()
	n.profiles[pairKey{from, to}] = prof
	victims := n.linksBetween(from, to)
	n.mu.Unlock()
	for _, l := range victims {
		if l.client == from {
			l.cToS.setProfile(prof)
		} else {
			l.sToC.setProfile(prof)
		}
	}
}

// ClearLinkProfiles drops every shaping override; live links keep their
// current profiles, future dials shape by the dial-time profile again.
func (n *Network) ClearLinkProfiles() {
	n.mu.Lock()
	n.profiles = make(map[pairKey]LinkProfile)
	n.mu.Unlock()
}

// linksBetween returns the live links whose endpoints are exactly the
// hosts a and b (in either orientation). Caller holds n.mu.
func (n *Network) linksBetween(a, b string) []*link {
	var out []*link
	for l := range n.links {
		if (l.client == a && l.server == b) || (l.client == b && l.server == a) {
			out = append(out, l)
		}
	}
	return out
}

// Listener accepts simulated connections. It implements net.Listener.
type Listener struct {
	net    *Network
	addr   Addr
	accept chan *Conn
	done   chan struct{}
	once   sync.Once
}

var _ net.Listener = (*Listener)(nil)

// Listen registers a listener on the symbolic address addr.
func (n *Network) Listen(addr string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("netsim: address %q already in use", addr)
	}
	l := &Listener{
		net:    n,
		addr:   Addr(addr),
		accept: make(chan *Conn, 16),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close unregisters the listener.
func (l *Listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, string(l.addr))
		l.net.mu.Unlock()
	})
	return nil
}

// Addr returns the listener's symbolic address.
func (l *Listener) Addr() net.Addr { return l.addr }

// Dial connects to addr with the given link profile, using an
// auto-generated client host name.
func (n *Network) Dial(addr string, prof LinkProfile) (net.Conn, error) {
	n.mu.Lock()
	n.nextID++
	name := fmt.Sprintf("client%d.sim", n.nextID)
	n.mu.Unlock()
	return n.DialFrom(name, addr, prof)
}

// DialFrom connects to addr, presenting the given client host name
// (visible to hostname authentication on the server). Dials across a
// partitioned host pair are refused, and directional profile overrides
// installed with SetLinkProfile apply on top of prof.
func (n *Network) DialFrom(clientName, addr string, prof LinkProfile) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	if _, cut := n.blocked[orderedPair(clientName, addr)]; cut {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: no route from %q to %q: partitioned", clientName, addr)
	}
	toProf, hasTo := n.profiles[pairKey{clientName, addr}]
	fromProf, hasFrom := n.profiles[pairKey{addr, clientName}]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netsim: connection refused: no listener on %q", addr)
	}
	client, server := PipeNamed(prof, clientName, addr)
	if hasTo {
		client.send.setProfile(toProf)
	}
	if hasFrom {
		server.send.setProfile(fromProf)
	}
	lk := &link{
		net:    n,
		client: clientName,
		server: addr,
		cToS:   client.send,
		sToC:   server.send,
		c1:     client,
		c2:     server,
	}
	client.link, server.link = lk, lk
	n.mu.Lock()
	n.links[lk] = struct{}{}
	n.mu.Unlock()
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		n.unregister(lk)
		return nil, fmt.Errorf("netsim: connection refused: listener on %q closed", addr)
	}
}
