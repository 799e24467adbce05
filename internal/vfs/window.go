package vfs

import "sync"

// Window is how many bytes of a streamed body are in memory at a time
// on any path that moves one: a getfile or putfile body on either side
// of the wire, a multipart chunk, a local hash. A body goes source →
// window → destination, so what a transfer holds does not depend on
// how much it moves.
const Window = 256 << 10

// bufPool recycles data buffers across requests, connections and
// transfers, so the data path's steady state allocates nothing.
// Entries are *[]byte (a pool of slices would box a fresh header on
// every Put) and grow to the largest request they have served.
var bufPool sync.Pool

// GetBuf returns a pooled buffer of length n. Return it with PutBuf.
func GetBuf(n int) *[]byte {
	v, _ := bufPool.Get().(*[]byte)
	if v == nil {
		v = new([]byte)
	}
	if cap(*v) < n {
		*v = make([]byte, n)
	}
	*v = (*v)[:n]
	return v
}

// PutBuf hands a buffer from GetBuf back to the pool.
func PutBuf(v *[]byte) { bufPool.Put(v) }

// GetWindow returns the pooled buffer a body of size bytes streams
// through: one Window, or the body's own size when that is smaller — a
// 200-byte stub file does not cost a quarter of a megabyte the first
// time the pool is found empty.
func GetWindow(size int64) *[]byte {
	return GetBuf(int(min(max(size, 0), Window)))
}
