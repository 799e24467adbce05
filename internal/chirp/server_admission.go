package chirp

// Server admission control (DESIGN.md §15). A server under overload
// must degrade predictably instead of collapsing: unbounded accepted
// work makes every request's sojourn time exceed every client's
// timeout, at which point all service capacity is spent computing
// answers nobody is waiting for while retries multiply the offered
// load. The armor here is a bounded in-flight RPC semaphore with a
// short, priority-split admission queue: when the queue for a class is
// full the request is shed immediately with EAGAIN — explicit pushback
// the client-side retry budget understands. Cheap control-plane RPCs
// (stat, lease renewal, open/close) get two forms of priority so the
// metadata plane browns out last: a small reserved headroom above
// MaxInflight that bulk verbs can never use — a stat does not wait
// behind four in-flight bulk streams — and, if even the headroom is
// busy, a queue position granted ahead of every bulk waiter. Queue
// waits are bounded by their own timeout, and a drain fails every
// queued-but-unstarted request with ESHUTDOWN promptly, so Shutdown
// never stalls behind a full queue.

import (
	"sync"
	"time"

	"tss/internal/obs"
	"tss/internal/vfs"
)

// DefaultQueueTimeout bounds how long an RPC may wait for admission
// when ServerConfig.QueueTimeout is zero. Short by design: a request
// that cannot start promptly is better shed now, while the client's
// own deadline still has room for a backoff and retry elsewhere.
const DefaultQueueTimeout = 100 * time.Millisecond

// admission is the bounded in-flight semaphore plus its two waiter
// queues. A nil *admission (or max <= 0) admits everything: admission
// control is opt-in per server.
type admission struct {
	max      int
	ctrl     int // reserved control-plane headroom above max
	queueCap int
	timeout  time.Duration

	mu       sync.Mutex
	inflight int
	high     []chan struct{} // control-plane waiters, granted first
	low      []chan struct{} // bulk-data waiters
	draining bool
	drainCh  chan struct{} // closed once, when draining begins

	mInflight   *obs.Gauge
	mQueueDepth *obs.Gauge
}

// newAdmission builds the admission gate for one server. queueCap <= 0
// with a positive max defaults to max (a queue about as deep as the
// service floor); timeout <= 0 takes DefaultQueueTimeout. The
// control-plane headroom is a quarter of max, at least one slot: big
// enough that metadata stays responsive while every bulk slot streams,
// small enough that a control-plane storm is still bounded.
func newAdmission(max, queueCap int, timeout time.Duration, reg *obs.Registry) *admission {
	if queueCap <= 0 {
		queueCap = max
	}
	if timeout <= 0 {
		timeout = DefaultQueueTimeout
	}
	ctrl := max / 4
	if ctrl < 1 {
		ctrl = 1
	}
	a := &admission{
		max:      max,
		ctrl:     ctrl,
		queueCap: queueCap,
		timeout:  timeout,
		drainCh:  make(chan struct{}),
	}
	if reg != nil {
		a.mInflight = reg.Gauge("chirp_server.inflight")
		a.mQueueDepth = reg.Gauge("chirp_server.queue_depth")
	}
	return a
}

// acquire admits one RPC, blocking in the class queue when the server
// is at capacity. It returns nil when a slot is held (the caller must
// release), EAGAIN when the request is shed (queue full or queue wait
// timed out), and ESHUTDOWN when a drain began before the request was
// admitted.
func (a *admission) acquire(bulk bool) error {
	if a == nil || a.max <= 0 {
		return nil
	}
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return vfs.ESHUTDOWN
	}
	limit := a.max
	if !bulk {
		limit += a.ctrl
	}
	if a.inflight < limit {
		a.inflight++
		a.mInflight.Set(int64(a.inflight))
		a.mu.Unlock()
		return nil
	}
	q := &a.high
	if bulk {
		q = &a.low
	}
	if len(*q) >= a.queueCap {
		a.mu.Unlock()
		return vfs.EAGAIN
	}
	ch := make(chan struct{})
	*q = append(*q, ch)
	a.mQueueDepth.Set(int64(len(a.high) + len(a.low)))
	a.mu.Unlock()

	t := time.NewTimer(a.timeout)
	defer t.Stop()
	select {
	case <-ch:
		// Granted: the releaser transferred its slot to us.
		return nil
	case <-t.C:
		if a.cancel(ch) {
			return vfs.EAGAIN
		}
		// A grant raced the timeout; the slot is ours after all.
		<-ch
		return nil
	case <-a.drainCh:
		if a.cancel(ch) {
			return vfs.ESHUTDOWN
		}
		<-ch
		return nil
	}
}

// release returns one slot, handing it to the oldest control-plane
// waiter first, then the oldest bulk waiter — each only if its class
// has capacity after the release (a slot freed by a headroom-admitted
// control RPC must not push bulk occupancy past max).
func (a *admission) release() {
	if a == nil || a.max <= 0 {
		return
	}
	a.mu.Lock()
	a.inflight--
	if ch := a.popLocked(); ch != nil {
		a.inflight++ // the slot transfers to the granted waiter
		close(ch)
		a.mQueueDepth.Set(int64(len(a.high) + len(a.low)))
	}
	a.mInflight.Set(int64(a.inflight))
	a.mu.Unlock()
}

// popLocked removes and returns the next waiter whose class has
// capacity, or nil. Caller holds a.mu with a.inflight already
// decremented for the slot being released.
func (a *admission) popLocked() chan struct{} {
	if len(a.high) > 0 && a.inflight < a.max+a.ctrl {
		ch := a.high[0]
		a.high = a.high[1:]
		return ch
	}
	if len(a.low) > 0 && a.inflight < a.max {
		ch := a.low[0]
		a.low = a.low[1:]
		return ch
	}
	return nil
}

// cancel removes ch from its queue, reporting whether it was still
// queued. False means a grant already popped it: the grant channel is
// closed (or about to be) and the slot belongs to the caller.
func (a *admission) cancel(ch chan struct{}) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, q := range []*[]chan struct{}{&a.high, &a.low} {
		for i, c := range *q {
			if c == ch {
				*q = append((*q)[:i], (*q)[i+1:]...)
				a.mQueueDepth.Set(int64(len(a.high) + len(a.low)))
				return true
			}
		}
	}
	return false
}

// drain fails every queued-but-unstarted waiter with ESHUTDOWN and
// makes all future acquires refuse immediately. RPCs already admitted
// keep their slots and finish normally. Idempotent.
func (a *admission) drain() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.draining {
		a.draining = true
		close(a.drainCh)
	}
	a.mu.Unlock()
}
