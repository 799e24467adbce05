package vfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// The unified transfer entrypoint. Copy collapses the accreted transfer
// surface — FileGetter, FilePutter, PutReader, ad-hoc pread/pwrite
// loops — into one call that probes Capabilities on both sides and
// picks the best strategy itself:
//
//   - small files move in a single shot over the whole-file fast paths
//     (or a positional copy loop when neither side has one);
//   - files at or above CopyOptions.Cutover, with Concurrency > 1,
//     move as parallel multipart transfers: the file is split into
//     ChunkSize pieces and chunk reads/writes are dispatched
//     concurrently through the PartGetter/PartPutter capabilities —
//     which a chirp.Pool fans out across its pooled connections — or,
//     absent those, through concurrent positional I/O on open files.
//
// With Verify, every chunk carries a crc32c digest trailer verified by
// the receiving side, and the completion step checks a composed
// whole-file digest (CombineCRC32C), so a torn or corrupted multipart
// transfer is detected end to end and its partial destination state is
// removed — zero wrong bytes survive at rest.

// DefaultChunkSize is the multipart chunk size when CopyOptions leaves
// it zero. It matches the protocol's single-I/O bound so one chunk is
// one comfortable wire transfer.
const DefaultChunkSize = 8 << 20

// Loc names a file on a filesystem: one endpoint of a transfer.
type Loc struct {
	FS   FileSystem
	Path string
}

// Retryer drives an operation against a filesystem under the §6
// recovery protocol — back off, reconnect fs, run reopen if there is an
// open handle to re-establish, re-run op; pushback re-runs in place —
// and returns ETIMEDOUT or EAGAIN once it gives up.
// resilient.Policy.Run is the implementation; it is declared here
// (rather than importing the resilient package, which itself builds on
// vfs) so CopyOptions can carry a policy without an import cycle.
type Retryer interface {
	Run(fs FileSystem, op func() error, reopen func() error) error
}

// CopyOptions tunes a Copy. The zero value is a safe single-stream,
// unverified transfer.
type CopyOptions struct {
	// Concurrency is the number of parallel chunk workers for multipart
	// transfers (<= 1 disables multipart).
	Concurrency int
	// ChunkSize is the multipart chunk size (default DefaultChunkSize).
	ChunkSize int64
	// Cutover is the file size at or above which a transfer goes
	// multipart (default 2*ChunkSize: below two chunks there is nothing
	// to parallelize).
	Cutover int64
	// Verify enables end-to-end digest verification. Multipart
	// transfers always verify with crc32c — the only wire digest with a
	// composition law (CombineCRC32C) — regardless of any transport
	// digest configuration.
	Verify bool
	// Mode is the destination file mode; zero adopts the source mode
	// (or 0644 when that is zero too).
	Mode uint32
	// Progress, when non-nil, observes cumulative transfer progress. It
	// is called from transfer goroutines, serialized by the engine.
	Progress func(copied, total int64)
	// Retry, when non-nil, drives every operation of the transfer that
	// can fail on its own — a negotiation probe, a chunk read, a chunk
	// write, the completion, or a single-stream transfer as a whole —
	// so a lost connection or a shed request costs one operation's
	// retries, at one level. It also turns on one fresh run of a chunk
	// or a transfer that failed verification. Nil runs everything once,
	// bare. resilient.Policy satisfies it.
	Retry Retryer
}

// normalize fills defaults in place.
func (o *CopyOptions) normalize() {
	if o.Concurrency < 1 {
		o.Concurrency = 1
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.Cutover <= 0 {
		o.Cutover = 2 * o.ChunkSize
	}
}

// Copy transfers the file at src to dst under opts and returns the
// number of bytes copied. It is the single sanctioned transfer
// entrypoint; see the package comment above and CopyOptions for the
// strategy selection.
func Copy(ctx context.Context, dst, src Loc, opts CopyOptions) (int64, error) {
	bc, err := NewBulkCopier(dst, src, opts)
	if err != nil {
		return 0, err
	}
	return bc.Run(ctx)
}

// PutBytes stores data as the named file through the same strategy
// selection as Copy: a single-shot put below the cutover, a parallel
// multipart put (with composed-digest completion) at or above it.
// mode zero defaults to 0644.
func PutBytes(ctx context.Context, dst Loc, mode uint32, data []byte, opts CopyOptions) error {
	if dst.FS == nil {
		return EINVAL
	}
	opts.normalize()
	if mode == 0 {
		mode = 0o644
	}
	size := int64(len(data))
	bc := &BulkCopier{dst: dst, opts: opts, size: size, mode: mode, data: data}
	return bc.transfer(ctx, func() error {
		if err := PutReader(dst.FS, dst.Path, mode, size, bc.meterReader(bytes.NewReader(data))); err != nil {
			return err
		}
		if opts.Verify {
			want := FormatCRC32C(CRC32C(0, data))
			return bc.verifyDst(want)
		}
		return nil
	})
}

// BulkCopier is the transfer engine behind Copy: one value per
// transfer, holding the resolved plan and progress accounting. Most
// callers use Copy; constructing a BulkCopier directly is for callers
// that want to Run the same plan after inspection.
type BulkCopier struct {
	dst, src Loc
	opts     CopyOptions
	size     int64
	mode     uint32

	// data is the source when src.FS is nil: PutBytes feeds a transfer
	// from memory.
	data []byte

	copied atomic.Int64
	progMu sync.Mutex
}

// NewBulkCopier validates endpoints and freezes options for one
// transfer.
func NewBulkCopier(dst, src Loc, opts CopyOptions) (*BulkCopier, error) {
	if dst.FS == nil || src.FS == nil {
		return nil, EINVAL
	}
	opts.normalize()
	return &BulkCopier{dst: dst, src: src, opts: opts}, nil
}

// Copied reports the bytes transferred so far (or in total, after Run).
func (bc *BulkCopier) Copied() int64 { return bc.copied.Load() }

// progress accumulates n transferred bytes and notifies the observer,
// serialized so a Progress callback never races itself.
func (bc *BulkCopier) progress(n int64) {
	c := bc.copied.Add(n)
	if bc.opts.Progress != nil {
		bc.progMu.Lock()
		bc.opts.Progress(c, bc.size)
		bc.progMu.Unlock()
	}
}

// meterReader wraps r so bytes flowing through it feed progress.
func (bc *BulkCopier) meterReader(r io.Reader) io.Reader { return &meterR{bc: bc, r: r} }

type meterR struct {
	bc *BulkCopier
	r  io.Reader
}

func (m *meterR) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	if n > 0 {
		m.bc.progress(int64(n))
	}
	return n, err
}

type meterW struct {
	bc *BulkCopier
	w  io.Writer
}

func (m *meterW) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	if n > 0 {
		m.bc.progress(int64(n))
	}
	return n, err
}

// drivePart is drive for a chunk, which is verified on its own.
func (bc *BulkCopier) drivePart(fs FileSystem, op func() error) error {
	return bc.verified(func() error { return bc.drive(fs, op) })
}

// drive runs one operation of the transfer against fs: under the retry
// policy when there is one, bare otherwise.
func (bc *BulkCopier) drive(fs FileSystem, op func() error) error {
	if bc.opts.Retry == nil {
		return op()
	}
	return bc.opts.Retry.Run(fs, op, nil)
}

// verified runs op and, under a retry policy, runs it once more when it
// failed verification: a chunk corrupted or torn in flight arrives
// whole the second time, and after a rejected completion the server has
// removed the file, so the cure is a fresh transfer. Bytes that are
// wrong at rest fail twice and surface.
func (bc *BulkCopier) verified(op func() error) error {
	err := op()
	if bc.opts.Retry != nil && (errors.Is(err, ErrIntegrity) || AsErrno(err) == EBADMSG) {
		err = op()
	}
	return err
}

// ends is the filesystem a single-stream transfer is driven against: a
// connection lost on either side is cured by reconnecting both.
type ends struct {
	FileSystem // the destination
	src        FileSystem
}

func (e ends) Reconnect() error { return ReconnectAll(e.src, e.FileSystem) }

// transfer runs the whole transfer: multipart when eligible, otherwise
// single, one stream driven as one operation.
func (bc *BulkCopier) transfer(ctx context.Context, single func() error) error {
	return bc.verified(func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if bc.multipartEligible() {
			bc.copied.Store(0)
			return bc.runMultipart(ctx)
		}
		return bc.drive(ends{bc.dst.FS, bc.src.FS}, func() error {
			bc.copied.Store(0)
			return single()
		})
	})
}

func (bc *BulkCopier) multipartEligible() bool {
	return bc.opts.Concurrency > 1 && bc.size >= bc.opts.Cutover
}

// Run executes the transfer and returns the bytes copied.
func (bc *BulkCopier) Run(ctx context.Context) (int64, error) {
	fi, err := bc.src.FS.Stat(bc.src.Path)
	if err != nil {
		return 0, err
	}
	if fi.IsDir {
		return 0, EISDIR
	}
	bc.size = fi.Size
	bc.mode = bc.opts.Mode
	if bc.mode == 0 {
		bc.mode = fi.Mode
	}
	if bc.mode == 0 {
		bc.mode = 0o644
	}
	err = bc.transfer(ctx, bc.runSingle)
	return bc.copied.Load(), err
}

// runSingle moves the file in one stream, picking the best pairing of
// whole-file fast paths the two sides offer.
func (bc *BulkCopier) runSingle() error {
	srcCaps := Capabilities(bc.src.FS)
	dstCaps := Capabilities(bc.dst.FS)
	var err error
	switch {
	case srcCaps.FileGetter != nil && dstCaps.FilePutter != nil:
		err = bc.singlePipe(srcCaps.FileGetter, dstCaps.FilePutter)
	case srcCaps.FileGetter != nil:
		err = bc.singleFromGetter(srcCaps.FileGetter)
	case dstCaps.FilePutter != nil:
		err = bc.singleToPutter(dstCaps.FilePutter)
	default:
		err = bc.singlePositional()
	}
	if err != nil {
		return err
	}
	if bc.opts.Verify {
		srcSum, err := ChecksumFile(bc.src.FS, bc.src.Path, AlgoCRC32C)
		if err != nil {
			return err
		}
		return bc.verifyDst(srcSum)
	}
	return nil
}

// verifyDst checks the destination digest against want, removing the
// destination on mismatch so no wrong bytes survive at rest.
func (bc *BulkCopier) verifyDst(want string) error {
	got, err := ChecksumFile(bc.dst.FS, bc.dst.Path, AlgoCRC32C)
	if err != nil {
		return err
	}
	if got != want {
		bc.dst.FS.Unlink(bc.dst.Path)
		return ChecksumMismatch(bc.dst.Path, AlgoCRC32C, want, got)
	}
	return nil
}

// singlePipe streams getter→putter through a pipe: both fast paths, no
// intermediate file, one buffer in flight.
func (bc *BulkCopier) singlePipe(g FileGetter, p FilePutter) error {
	pr, pw := io.Pipe()
	getErr := make(chan error, 1)
	go func() {
		_, err := g.GetFile(bc.src.Path, pw)
		pw.CloseWithError(err)
		getErr <- err
	}()
	putErr := p.PutFile(bc.dst.Path, bc.mode, bc.size, bc.meterReader(pr))
	pr.CloseWithError(putErr)
	if gerr := <-getErr; gerr != nil {
		return gerr
	}
	return putErr
}

// singleFromGetter streams the source fast path into a positional
// destination file.
func (bc *BulkCopier) singleFromGetter(g FileGetter) error {
	f, err := bc.dst.FS.Open(bc.dst.Path, O_WRONLY|O_CREAT|O_TRUNC, bc.mode)
	if err != nil {
		return err
	}
	_, gerr := g.GetFile(bc.src.Path, &meterW{bc: bc, w: NewSeqFile(f)})
	cerr := f.Close()
	if gerr != nil {
		return gerr
	}
	return cerr
}

// singleToPutter streams a positional source file into the destination
// fast path.
func (bc *BulkCopier) singleToPutter(p FilePutter) error {
	f, err := bc.src.FS.Open(bc.src.Path, O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.PutFile(bc.dst.Path, bc.mode, bc.size, bc.meterReader(NewSeqFile(f)))
}

// singlePositional is the no-fast-path fallback: a pread/pwrite loop.
func (bc *BulkCopier) singlePositional() error {
	in, err := bc.src.FS.Open(bc.src.Path, O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := bc.dst.FS.Open(bc.dst.Path, O_WRONLY|O_CREAT|O_TRUNC, bc.mode)
	if err != nil {
		return err
	}
	// One byte beyond the size, so a file that grew since the stat is
	// still read to its end.
	bp := GetWindow(bc.size + 1)
	defer PutBuf(bp)
	buf := *bp
	var off int64
	for {
		n, err := in.Pread(buf, off)
		if err != nil {
			out.Close()
			return err
		}
		if n == 0 {
			break
		}
		if err := WriteAll(out, buf[:n], off); err != nil {
			out.Close()
			return err
		}
		off += int64(n)
		bc.progress(int64(n))
	}
	return out.Close()
}

// part is the engine's view of one attempt at one chunk: the reader it
// hands a PartPutter, or the writer it hands a PartGetter. The chunk
// passes through it exactly once — through Read when it is pulled from
// r, through Write when a PartGetter pushes it to w — and is counted
// and, under Verify, folded into the engine's own crc32c as it passes.
// That digest is taken over the very bytes the engine moved, below
// whatever the part verb's own trailer check covered, so a layer that
// damages them after that check is still caught by the composed digest.
type part struct {
	r      io.Reader
	w      io.Writer
	off    int64 // where the chunk starts, for messages
	want   int64 // the chunk's length
	n      int64 // bytes passed so far
	verify bool
	crc    uint32
	srcErr error // what r failed with, which the far end reports as a lost stream
}

func (p *part) take(b []byte) {
	p.n += int64(len(b))
	if p.verify {
		p.crc = CRC32C(p.crc, b)
	}
}

// short is the error of a source that ended before the chunk did.
func (p *part) short(got int64) error {
	return fmt.Errorf("short part read at %d: got %d, want %d: %w", p.off, got, p.want, EIO)
}

// Read reads from r, never beyond the chunk's end.
func (p *part) Read(b []byte) (int, error) {
	if p.n == p.want {
		return 0, io.EOF
	}
	if left := p.want - p.n; int64(len(b)) > left {
		b = b[:left]
	}
	n, err := p.r.Read(b)
	p.take(b[:n])
	if err == io.EOF && p.n < p.want {
		err = p.short(p.n)
	}
	if err != nil && err != io.EOF && p.srcErr == nil {
		p.srcErr = err
	}
	return n, err
}

func (p *part) Write(b []byte) (int, error) {
	n, err := p.w.Write(b)
	p.take(b[:n])
	return n, err
}

// chunkWorker is one multipart worker: the two ends as negotiated, and
// the positional handles it opens on an end without a part verb.
type chunkWorker struct {
	bc               *BulkCopier
	srcPart          PartGetter
	dstPart          PartPutter
	algo             string
	srcFile, dstFile File
}

func (w *chunkWorker) close() {
	if w.srcFile != nil {
		w.srcFile.Close()
		w.srcFile = nil
	}
	if w.dstFile != nil {
		w.dstFile.Close()
		w.dstFile = nil
	}
}

// move is one attempt at the chunk [off, off+n): source → window →
// destination, no copy of the chunk in between. A part verb streams
// through its own window — GetPart writes straight into the destination
// file at off, PutPart reads straight from the source file or slice at
// off — and a chunk with neither goes through a window of the engine's
// own. It returns the engine's crc32c of the bytes moved.
//
// A window lands at the destination before the chunk's trailer has been
// checked. That is safe because a failed chunk is either run again over
// the same range or fails the transfer, which removes the destination.
func (w *chunkWorker) move(off, n int64) (crc uint32, err error) {
	bc := w.bc
	p := &part{off: off, want: n, verify: bc.opts.Verify}
	defer func() {
		if err != nil {
			// A handle may be fenced to a dead connection; drop both so
			// the next attempt reopens.
			w.close()
		}
	}()
	if bc.src.FS == nil {
		p.r = bytes.NewReader(bc.data[off : off+n])
	} else if w.srcPart == nil {
		if w.srcFile == nil {
			if w.srcFile, err = bc.src.FS.Open(bc.src.Path, O_RDONLY, 0); err != nil {
				return 0, err
			}
		}
		p.r = &SeqFile{f: w.srcFile, off: off}
	}
	if w.dstPart == nil {
		if w.dstFile == nil {
			if w.dstFile, err = bc.dst.FS.Open(bc.dst.Path, O_WRONLY, 0); err != nil {
				return 0, err
			}
		}
		p.w = &SeqFile{f: w.dstFile, off: off}
	}
	switch {
	case w.srcPart != nil && w.dstPart != nil:
		// Fetched whole into the window, then sent: see runMultipart on
		// why such a chunk is no larger than that.
		bp := GetWindow(n)
		defer PutBuf(bp)
		held := bytes.NewBuffer((*bp)[:0])
		if _, _, err = w.srcPart.GetPart(bc.src.Path, off, n, w.algo, held); err != nil {
			return 0, err
		}
		if got := int64(held.Len()); got != n {
			return 0, p.short(got)
		}
		p.r = held
		_, err = w.dstPart.PutPart(bc.dst.Path, off, n, w.algo, p)
	case w.srcPart != nil:
		_, _, err = w.srcPart.GetPart(bc.src.Path, off, n, w.algo, p)
	case w.dstPart != nil:
		_, err = w.dstPart.PutPart(bc.dst.Path, off, n, w.algo, p)
	default:
		bp := GetWindow(n)
		defer PutBuf(bp)
		_, err = io.CopyBuffer(p.w, p, *bp)
	}
	if p.srcErr != nil {
		// A put whose source failed loses its stream and says so; what
		// went wrong is what the source said.
		err = p.srcErr
	}
	if err == nil && p.n != n {
		err = p.short(p.n)
	}
	return p.crc, err
}

// runMultipart is one parallel multipart transfer attempt: negotiate
// part support on each side (falling back to concurrent positional I/O
// where a side lacks it or its server predates the verbs), fan chunks
// out over Concurrency workers, then complete — verifying the composed
// whole-file digest when Verify is on. Any failure removes the partial
// destination before returning. A transfer holds one window per worker
// (see chunkWorker.move), whatever the chunk size.
func (bc *BulkCopier) runMultipart(ctx context.Context) error {
	algo := ""
	if bc.opts.Verify {
		algo = AlgoCRC32C
	}

	// Source side: the part-read capability, probed with a zero-length
	// getpart so a server that predates the verb answers EINVAL with its
	// framing intact and the transfer degrades to positional reads. The
	// probe costs one tiny RPC; memoizing it per transfer keeps the
	// negotiation logic in one place.
	var srcPart PartGetter
	if bc.src.FS != nil {
		srcPart = Capabilities(bc.src.FS).PartGetter
		if srcPart != nil {
			err := bc.drive(bc.src.FS, func() error {
				_, _, e := srcPart.GetPart(bc.src.Path, 0, 0, "", io.Discard)
				return e
			})
			if err != nil {
				if AsErrno(err) != EINVAL || errors.Is(err, ErrIntegrity) {
					return err
				}
				srcPart = nil
			}
		}
	}

	// Destination side: putbegin doubles as the negotiation probe (it
	// has no body, so an old server's EINVAL leaves the stream in sync)
	// and creates the file at its final path and full size, which is
	// also what the positional fallback needs.
	dstPart := Capabilities(bc.dst.FS).PartPutter
	if dstPart != nil {
		err := bc.drive(bc.dst.FS, func() error {
			return dstPart.PutBegin(bc.dst.Path, bc.mode, bc.size)
		})
		if err != nil {
			if AsErrno(err) != EINVAL {
				return err
			}
			dstPart = nil
		}
	}
	if dstPart == nil {
		f, err := bc.dst.FS.Open(bc.dst.Path, O_WRONLY|O_CREAT|O_TRUNC, bc.mode)
		if err != nil {
			return err
		}
		terr := f.Ftruncate(bc.size)
		cerr := f.Close()
		if terr != nil {
			return terr
		}
		if cerr != nil {
			return cerr
		}
	}

	chunk := bc.opts.ChunkSize
	if srcPart != nil && dstPart != nil {
		// Two part verbs cannot stream into each other. Each holds its
		// connection until its body is through, and the two ends may
		// share connections (two paths of one server; fewer connections
		// than workers): a getpart blocked on a putpart that waits for
		// the getpart's connection never ends. So such a chunk is
		// fetched whole and then sent, and is no larger than the window
		// that holds it in between.
		chunk = min(chunk, Window)
	}
	nchunks := (bc.size + chunk - 1) / chunk
	crcs := make([]uint32, nchunks)

	workers := bc.opts.Concurrency
	if int64(workers) > nchunks {
		workers = int(nchunks)
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}

	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &chunkWorker{bc: bc, srcPart: srcPart, dstPart: dstPart, algo: algo}
			defer w.close()
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := next.Add(1) - 1
				if i >= nchunks {
					return
				}
				off := i * chunk
				n := min(chunk, bc.size-off)
				// A chunk is one operation against both ends: a connection
				// lost on either is cured by reconnecting both, and a chunk
				// that failed verification goes through again whole.
				err := bc.drivePart(ends{bc.dst.FS, bc.src.FS}, func() error {
					var err error
					crcs[i], err = w.move(off, n)
					return err
				})
				if err != nil {
					fail(err)
					return
				}
				bc.progress(n)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		bc.cleanupMultipart(dstPart)
		return firstErr
	}

	// Completion. Chunk digests compose in offset order into the digest
	// a single-stream transfer would have produced; the put side hands
	// it to putcomplete (the server hashes the assembled file and
	// removes it on mismatch), the get side compares it against the
	// source's authoritative server-side digest when one is offered.
	var composed uint32
	if bc.opts.Verify {
		composed = crcs[0]
		for i := int64(1); i < nchunks; i++ {
			clen := chunk
			if i == nchunks-1 {
				clen = bc.size - i*chunk
			}
			composed = CombineCRC32C(composed, crcs[i], clen)
		}
	}
	if dstPart != nil {
		sum := ""
		if bc.opts.Verify {
			sum = FormatCRC32C(composed)
		}
		// After a digest mismatch the server has already removed the
		// file, so the cure is a fresh transfer (see verified), not
		// re-asking.
		err := bc.drive(bc.dst.FS, func() error {
			return dstPart.PutComplete(bc.dst.Path, bc.size, algo, sum)
		})
		if err != nil {
			bc.cleanupMultipart(dstPart)
			if AsErrno(err) == EBADMSG && !errors.Is(err, ErrIntegrity) {
				err = fmt.Errorf("%s: composed %s digest rejected by server: %w",
					bc.dst.Path, AlgoCRC32C, errors.Join(EIO, ErrIntegrity))
			}
			return err
		}
	} else if bc.opts.Verify && bc.src.FS != nil {
		if cs := Capabilities(bc.src.FS).Checksummer; cs != nil {
			want, err := cs.Checksum(bc.src.Path, AlgoCRC32C)
			if err != nil {
				bc.cleanupMultipart(dstPart)
				return err
			}
			if got := FormatCRC32C(composed); got != want {
				bc.cleanupMultipart(dstPart)
				return ChecksumMismatch(bc.src.Path, AlgoCRC32C, want, got)
			}
		}
	}
	return nil
}

// cleanupMultipart removes partial destination state after a failed
// multipart transfer; a server-side putcomplete mismatch has already
// unlinked, so a resulting ENOENT here is the success case.
func (bc *BulkCopier) cleanupMultipart(PartPutter) {
	bc.dst.FS.Unlink(bc.dst.Path)
}
