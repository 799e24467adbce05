package adapter

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// TrapEmulator charges file operations the cost of ptrace-style
// system call interposition, so Figure 3 can be reproduced honestly.
//
// Under Parrot, every system call of the traced application stops the
// process, switches to the adapter process, runs the replacement
// implementation, copies data between address spaces, and switches
// back. A library-level adapter pays none of that, so this emulator
// re-introduces the two costs that dominate:
//
//   - scheduling: each Trap performs a synchronous round trip to a
//     dedicated service goroutine over unbuffered channels — two real
//     context switches through the scheduler, the analog of the
//     debugger stop/resume pair;
//   - the extra data copy: the service goroutine copies n bytes
//     through an intermediate buffer, the analog of moving I/O data
//     through the adapter's address space.
type TrapEmulator struct {
	req  chan int
	done chan struct{}

	mu  sync.Mutex
	buf []byte

	src    []byte       // source data for the emulated copy
	copied atomic.Int64 // bytes moved through buf so far
}

// Copied returns how many bytes the emulator has copied through its
// intermediate buffer: the extra copy per byte of §7's Figure 5, as a
// count that does not depend on the speed of the host.
func (t *TrapEmulator) Copied() int64 { return t.copied.Load() }

// NewTrapEmulator starts the service goroutine.
func NewTrapEmulator() *TrapEmulator {
	t := &TrapEmulator{
		req:  make(chan int), // unbuffered: forces a handoff
		done: make(chan struct{}),
		src:  make([]byte, 64<<10),
	}
	go t.serve()
	return t
}

func (t *TrapEmulator) serve() {
	// Pin the service to its own OS thread: each handoff then costs a
	// genuine thread context switch, like the tracer/tracee switch
	// under ptrace, rather than a cheap same-thread goroutine swap.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for n := range t.req {
		if n > 0 {
			t.mu.Lock()
			if cap(t.buf) < n {
				t.buf = make([]byte, n)
			}
			b := t.buf[:n]
			for off := 0; off < n; off += len(t.src) {
				c := n - off
				if c > len(t.src) {
					c = len(t.src)
				}
				copy(b[off:off+c], t.src[:c])
			}
			t.mu.Unlock()
			t.copied.Add(int64(n))
		}
		t.done <- struct{}{}
	}
}

// Trap charges one interposed call that moves n bytes of data. Under
// ptrace a system call stops the tracee twice — at entry and at exit —
// so two full round trips to the service thread are charged; the data
// copy is charged once, with the entry stop.
func (t *TrapEmulator) Trap(n int) {
	t.req <- n // entry stop, with data copy
	<-t.done
	t.req <- 0 // exit stop
	<-t.done
}

// Close stops the service goroutine.
func (t *TrapEmulator) Close() {
	close(t.req)
}
