package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"

	"tss/internal/abstraction"
	"tss/internal/cache"
	"tss/internal/chirp"
	"tss/internal/chirp/proto"
	"tss/internal/netsim"
	"tss/internal/vfs"
)

// unitDesc is one generated application unit: whether it mutates, and
// two workload-specific picks (which library, which block, which
// slot). The stream of descriptors is a function of the seed alone;
// the system under test sees only the calls a unit makes.
type unitDesc struct {
	write bool
	a, b  int
}

// planner generates the unit stream. The r/w mix is stratified: every
// block of `every` consecutive units holds exactly one mutating unit at
// a seeded position, so the mix is exact over any run length and its
// sampling noise never reaches the per-op counts.
type planner struct {
	rng   *rand.Rand
	every int
	wpos  int
	pick  func(write bool) (a, b int)
}

func (p *planner) next(i int) unitDesc {
	if i%p.every == 0 {
		p.wpos = p.rng.Intn(p.every)
	}
	d := unitDesc{write: i%p.every == p.wpos}
	d.a, d.b = p.pick(d.write)
	return d
}

// runner executes units against an assembled stack and knows how to
// audit what they left behind.
type runner interface {
	// unit runs one unit to completion, checking every byte it reads,
	// and returns the application payload bytes it moved.
	unit(ctx context.Context, i int, d unitDesc) (int64, error)
	// audit verifies every acknowledged write against the export
	// directories, opened fresh; it returns the number of objects it
	// checked and how many were wrong.
	audit(exports []*vfs.LocalFS) (checked, bad int, err error)
	// close releases what the runner holds open.
	close() error
}

// errContent marks a unit whose I/O succeeded but delivered wrong
// bytes, names or sizes.
var errContent = errors.New("content check failed")

// workload is one named load shape: a stack, a tree, a unit mix.
type workload struct {
	name string
	why  string
	// units is the timed unit count of one repetition of the full
	// suite, warm the untimed warm-up (5 % of units), round the units
	// per measurement round: every round holds enough units of the
	// rarer class for its own p95.
	units, warm, round int
	writeEvery         int
	servers            int
	layers             []string
	transport          func() *transport
	// compose builds the client-side layers over st.pools and sets
	// st.top.
	compose func(st *stack) error
	// seed writes the workload's tree through t.
	seed func(t seedTarget) error
	// seedStack seeds a started stack; nil means seed every server's
	// export (directories through its pool, files on its disk).
	seedStack func(st *stack) error
	// seedLocal, when set, gives the workload a client-side scratch
	// filesystem (st.local) and fills it.
	seedLocal func(local *vfs.LocalFS) error
	// picker returns the per-unit pick function over rng.
	picker func(rng *rand.Rand) func(write bool) (a, b int)
	// start returns a runner driving top (and local, the client-side
	// scratch filesystem, where the workload has one).
	start func(top vfs.FileSystem, local *vfs.LocalFS) (runner, error)
	// wire lists the requests one r unit and one w unit put on the
	// wire, for the proto probes.
	wire func() []proto.Request
}

func (w *workload) plan(seed int64) *planner {
	rng := rand.New(rand.NewSource(seed))
	return &planner{rng: rng, every: w.writeEvery, pick: w.picker(rng)}
}

// seedTarget is where a tree is written. On a served export,
// directories are made through the protocol — so each gets the ACL
// file a chirp mkdir gives it — and file bytes go straight to the
// export directory, as when existing data is put behind a server.
type seedTarget struct {
	dirs, files vfs.FileSystem
}

func (t seedTarget) mkdirAll(path string) error { return vfs.MkdirAll(t.dirs, path, 0o755) }

// writeStream stores size bytes of content stream key at path.
func (t seedTarget) writeStream(path string, size int64, key uint64) error {
	f, err := t.files.Open(path, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	buf := make([]byte, min(size, 1<<20))
	for off := int64(0); off < size; off += int64(len(buf)) {
		chunk := buf[:min(int64(len(buf)), size-off)]
		fill(chunk, key, off)
		if err := vfs.WriteAll(f, chunk, off); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// readStream reads path through fs to EOF into buf-sized preads and
// checks it is exactly size bytes of content stream key.
func readStream(fs vfs.FileSystem, path string, size int64, key uint64, buf []byte) (int64, error) {
	f, err := fs.Open(path, vfs.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	var off int64
	for off < size {
		n, err := f.Pread(buf, off)
		if err != nil && !errors.Is(err, io.EOF) {
			f.Close()
			return off, err
		}
		if n == 0 {
			break
		}
		if !matches(buf[:n], key, off) {
			f.Close()
			return off, fmt.Errorf("%s at offset %d: %w", path, off, errContent)
		}
		off += int64(n)
	}
	if err := f.Close(); err != nil {
		return off, err
	}
	if off != size {
		return off, fmt.Errorf("%s: %d bytes, want %d: %w", path, off, size, errContent)
	}
	return off, nil
}

// auditStream checks one file on an export; a missing or wrong file is
// a mismatch, not an error.
func auditStream(fs vfs.FileSystem, path string, size int64, key uint64, buf []byte) bool {
	_, err := readStream(fs, path, size, key, buf)
	return err == nil
}

func composeCFS(st *stack) error {
	cfs := abstraction.NewCFS(st.nodes[0].addr, st.client(0))
	return st.mount(wrap(cfs, st.rec, layerAbstraction))
}

// ---- sp5_cfs / sp5_modern -------------------------------------------

const (
	sp5Releases  = 8
	sp5Libs      = 1024
	sp5LibSize   = 16 << 10
	sp5Misses    = 4
	sp5EtcFiles  = 16
	sp5EtcSize   = 256
	sp5Slots     = 64
	sp5WriteSize = 8 << 10
)

func sp5LibDir(rel int) string { return fmt.Sprintf("/sp5/rel%02d/arch/lib", rel) }
func sp5LibPath(rel, lib int) string {
	return fmt.Sprintf("%s/lib%04d.so", sp5LibDir(rel), lib)
}
func sp5EtcPath(i int) string  { return fmt.Sprintf("/sp5/etc/conf%02d.db", i) }
func sp5SlotPath(i int) string { return fmt.Sprintf("/sp5/out/out%02d.dat", i) }

// seedSP5 lays out the release tree: library lib lives in release
// lib%8, so a search that starts four releases away misses four times.
func seedSP5(t seedTarget) error {
	for rel := 0; rel < sp5Releases; rel++ {
		if err := t.mkdirAll(sp5LibDir(rel)); err != nil {
			return err
		}
	}
	for _, d := range []string{"/sp5/etc", "/sp5/out"} {
		if err := t.mkdirAll(d); err != nil {
			return err
		}
	}
	for lib := 0; lib < sp5Libs; lib++ {
		p := sp5LibPath(lib%sp5Releases, lib)
		if err := t.writeStream(p, sp5LibSize, keyOf(p, 0)); err != nil {
			return err
		}
	}
	for i := 0; i < sp5EtcFiles; i++ {
		p := sp5EtcPath(i)
		if err := t.writeStream(p, sp5EtcSize, keyOf(p, 0)); err != nil {
			return err
		}
	}
	// Every output slot exists from the start, so that every w unit is
	// the same operation — a rename that replaces a file — from the
	// first unit on. (On ext4 a replacing rename also starts write-back
	// of the new file, which a rename onto a free name does not.)
	for i := 0; i < sp5Slots; i++ {
		p := sp5SlotPath(i)
		if err := t.writeStream(p, sp5WriteSize, keyOf(p, 0)); err != nil {
			return err
		}
	}
	return nil
}

func sp5Picker(rng *rand.Rand) func(bool) (int, int) {
	zipf := rand.NewZipf(rng, 1.1, 1, sp5Libs-1)
	return func(write bool) (int, int) {
		if write {
			return rng.Intn(sp5Slots), 0
		}
		return int(zipf.Uint64()), 0
	}
}

type sp5Runner struct {
	fs    vfs.FileSystem
	paths [sp5Releases][]string // paths[rel][lib]: where the search looks
	slots [sp5Slots]string
	last  [sp5Slots]uint64 // version each slot holds: 0 as seeded, i+1 after unit i's acknowledged write
	etc   map[string]bool
	buf   []byte
	wbuf  []byte
}

func startSP5(top vfs.FileSystem, _ *vfs.LocalFS) (runner, error) {
	r := &sp5Runner{
		fs:   top,
		etc:  make(map[string]bool, sp5EtcFiles),
		buf:  make([]byte, 64<<10),
		wbuf: make([]byte, sp5WriteSize),
	}
	for rel := range r.paths {
		r.paths[rel] = make([]string, sp5Libs)
		for lib := range r.paths[rel] {
			r.paths[rel][lib] = sp5LibPath(rel, lib)
		}
	}
	for i := range r.slots {
		r.slots[i] = sp5SlotPath(i)
	}
	for i := 0; i < sp5EtcFiles; i++ {
		r.etc[filepath.Base(sp5EtcPath(i))] = true
	}
	return r, nil
}

func (r *sp5Runner) unit(_ context.Context, i int, d unitDesc) (int64, error) {
	if d.write {
		return r.write(i, d.a)
	}
	lib, home := d.a, d.a%sp5Releases
	for k := sp5Misses; k >= 1; k-- {
		p := r.paths[(home+k)%sp5Releases][lib]
		if _, err := r.fs.Stat(p); vfs.AsErrno(err) != vfs.ENOENT {
			return 0, fmt.Errorf("search probe %s: got %v, want ENOENT: %w", p, err, errContent)
		}
	}
	p := r.paths[home][lib]
	fi, err := r.fs.Stat(p)
	if err != nil {
		return 0, err
	}
	if fi.Size != sp5LibSize {
		return 0, fmt.Errorf("%s: stat size %d: %w", p, fi.Size, errContent)
	}
	n, err := readStream(r.fs, p, fi.Size, keyOf(p, 0), r.buf)
	if err != nil {
		return n, err
	}
	ents, err := r.fs.ReadDir("/sp5/etc")
	if err != nil {
		return n, err
	}
	if len(ents) != sp5EtcFiles {
		return n, fmt.Errorf("/sp5/etc: %d entries: %w", len(ents), errContent)
	}
	for _, e := range ents {
		if !r.etc[e.Name] {
			return n, fmt.Errorf("/sp5/etc: stray entry %q: %w", e.Name, errContent)
		}
	}
	return n, nil
}

// write is the job-output unit: write a temporary, rename it onto one
// of the slots. The content is keyed by slot and version, so the audit
// can tell which write a slot holds.
func (r *sp5Runner) write(i, slot int) (int64, error) {
	tmp := "/sp5/out/c" + strconv.Itoa(i) + ".tmp"
	f, err := r.fs.Open(tmp, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	version := uint64(i) + 1
	fill(r.wbuf, keyOf(r.slots[slot], version), 0)
	if err := vfs.WriteAll(f, r.wbuf, 0); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := r.fs.Rename(tmp, r.slots[slot]); err != nil {
		return 0, err
	}
	r.last[slot] = version
	return sp5WriteSize, nil
}

func (r *sp5Runner) audit(exports []*vfs.LocalFS) (checked, bad int, err error) {
	for _, ex := range exports {
		for slot, version := range r.last {
			checked++
			if !auditStream(ex, r.slots[slot], sp5WriteSize, keyOf(r.slots[slot], version), r.buf) {
				bad++
			}
		}
		ents, err := ex.ReadDir("/sp5/out")
		if err != nil {
			return checked, bad, err
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name, ".tmp") {
				checked++
				bad++
			}
		}
	}
	return checked, bad, nil
}

func (r *sp5Runner) close() error { return nil }

func sp5Wire() []proto.Request {
	lib, tmp := sp5LibPath(3, 3), "/sp5/out/c12345.tmp"
	var reqs []proto.Request
	for k := 1; k <= sp5Misses; k++ {
		reqs = append(reqs, proto.Request{Verb: "stat", Path: sp5LibPath(3+k, 3)})
	}
	return append(reqs,
		proto.Request{Verb: "stat", Path: lib},
		proto.Request{Verb: "open", Path: lib, Flags: vfs.O_RDONLY},
		proto.Request{Verb: "pread", FD: 3, Length: 64 << 10},
		proto.Request{Verb: "close", FD: 3},
		proto.Request{Verb: "getdir", Path: "/sp5/etc"},
		proto.Request{Verb: "open", Path: tmp, Flags: vfs.O_WRONLY | vfs.O_CREAT | vfs.O_TRUNC, Mode: 0o644},
		proto.Request{Verb: "pwrite", FD: 3, Length: sp5WriteSize},
		proto.Request{Verb: "close", FD: 3},
		proto.Request{Verb: "rename", Path: tmp, Path2: sp5SlotPath(7)},
	)
}

// composeModern is the full modern stack, composed by hand — not via
// adapter.Config.Cache — so that a boundary exists between the adapter
// and the cache.
func composeModern(st *stack) error {
	m, err := abstraction.NewMirrorOptions(abstraction.MirrorOptions{}, st.client(0), st.client(1))
	if err != nil {
		return err
	}
	st.mirror = m
	st.cache = cache.New(wrap(m, st.rec, layerAbstraction), cache.Options{DataBytes: 8 << 20})
	return st.mount(wrap(st.cache, st.rec, layerCache))
}

// ---- smallio_rw -----------------------------------------------------

const (
	smallPath   = "/data/blob.bin"
	smallBlock  = 8 << 10
	smallBlocks = 8192 // 64 MiB
)

func seedSmall(t seedTarget) error {
	if err := t.mkdirAll("/data"); err != nil {
		return err
	}
	// Block b at version 0 is stream keyOf(smallPath, 0) at its own
	// offset, so the whole fresh file is one stream.
	return t.writeStream(smallPath, smallBlock*smallBlocks, keyOf(smallPath, 0))
}

func smallPicker(rng *rand.Rand) func(bool) (int, int) {
	return func(bool) (int, int) { return rng.Intn(smallBlocks), 0 }
}

// smallRunner holds the one descriptor open for the whole run. Each
// block's content is a function of its offset and of how many times it
// has been rewritten, which the runner tracks, so a read after a write
// is still checkable and a lost write is caught.
type smallRunner struct {
	f    vfs.File
	vers []uint32
	buf  []byte
}

func startSmall(top vfs.FileSystem, _ *vfs.LocalFS) (runner, error) {
	f, err := top.Open(smallPath, vfs.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	return &smallRunner{f: f, vers: make([]uint32, smallBlocks), buf: make([]byte, smallBlock)}, nil
}

func (r *smallRunner) unit(_ context.Context, _ int, d unitDesc) (int64, error) {
	off := int64(d.a) * smallBlock
	if d.write {
		fill(r.buf, keyOf(smallPath, uint64(r.vers[d.a]+1)), off)
		if err := vfs.WriteAll(r.f, r.buf, off); err != nil {
			return 0, err
		}
		r.vers[d.a]++
		return smallBlock, nil
	}
	if err := vfs.ReadFull(r.f, r.buf, off); err != nil {
		return 0, err
	}
	if !matches(r.buf, keyOf(smallPath, uint64(r.vers[d.a])), off) {
		return 0, fmt.Errorf("block %d: %w", d.a, errContent)
	}
	return smallBlock, nil
}

func (r *smallRunner) audit(exports []*vfs.LocalFS) (checked, bad int, err error) {
	f, err := exports[0].Open(smallPath, vfs.O_RDONLY, 0)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	for b, v := range r.vers {
		off := int64(b) * smallBlock
		checked++
		if err := vfs.ReadFull(f, r.buf, off); err != nil || !matches(r.buf, keyOf(smallPath, uint64(v)), off) {
			bad++
		}
	}
	return checked, bad, nil
}

func (r *smallRunner) close() error { return r.f.Close() }

func smallWire() []proto.Request {
	return []proto.Request{
		{Verb: "pread", FD: 3, Length: smallBlock, Offset: 4097 * smallBlock},
		{Verb: "pread", FD: 3, Length: smallBlock, Offset: 12 * smallBlock},
		{Verb: "pread", FD: 3, Length: smallBlock, Offset: 8000 * smallBlock},
		{Verb: "pwrite", FD: 3, Length: smallBlock, Offset: 777 * smallBlock},
	}
}

// ---- bulk_xfer ------------------------------------------------------

const (
	bulkSize    = 16 << 20
	bulkSources = 2 // per side
	bulkSlots   = 2 // destinations per side, overwritten in turn
)

func bulkRemoteSrc(i int) string { return fmt.Sprintf("/bulk/src%d.bin", i) }
func bulkRemoteDst(i int) string { return fmt.Sprintf("/bulk/put%d.bin", i) }
func bulkLocalSrc(i int) string  { return fmt.Sprintf("/up%d.bin", i) }
func bulkLocalDst(i int) string  { return fmt.Sprintf("/get%d.bin", i) }

func seedBulk(t seedTarget) error {
	if err := t.mkdirAll("/bulk"); err != nil {
		return err
	}
	for i := 0; i < bulkSources; i++ {
		p := bulkRemoteSrc(i)
		if err := t.writeStream(p, bulkSize, keyOf(p, 0)); err != nil {
			return err
		}
	}
	// Destinations exist from the start, holding local source 0, so
	// every put replaces a file of the same size.
	for i := 0; i < bulkSlots; i++ {
		if err := t.writeStream(bulkRemoteDst(i), bulkSize, keyOf(bulkLocalSrc(0), 0)); err != nil {
			return err
		}
	}
	return nil
}

// seedBulkLocal fills the client-side scratch filesystem with the files
// the put units upload.
func seedBulkLocal(local *vfs.LocalFS) error {
	t := seedTarget{dirs: local, files: local}
	for i := 0; i < bulkSources; i++ {
		p := bulkLocalSrc(i)
		if err := t.writeStream(p, bulkSize, keyOf(p, 0)); err != nil {
			return err
		}
	}
	for i := 0; i < bulkSlots; i++ {
		if err := t.writeStream(bulkLocalDst(i), bulkSize, keyOf(bulkRemoteSrc(0), 0)); err != nil {
			return err
		}
	}
	return nil
}

func bulkPicker(rng *rand.Rand) func(bool) (int, int) {
	return func(bool) (int, int) { return rng.Intn(bulkSources), rng.Intn(bulkSlots) }
}

// bulkCopyOptions is what `tss -pool 2 -P 2 -verify get|put` passes.
var bulkCopyOptions = vfs.CopyOptions{Concurrency: 2, ChunkSize: 4 << 20, Verify: true}

// bulkRunner moves whole files with vfs.Copy between the scratch
// filesystem and the server. A transfer is checked by the crc32c of
// what landed against the crc32c of the stream that was asked for,
// computed independently of the transfer engine's own verification.
type bulkRunner struct {
	remote  vfs.FileSystem
	local   *vfs.LocalFS
	sums    map[string]uint32 // source path -> crc32c of its content
	lastPut [bulkSlots]int    // local source each remote slot holds; 0 as seeded
	buf     []byte
}

func startBulk(top vfs.FileSystem, local *vfs.LocalFS) (runner, error) {
	r := &bulkRunner{remote: top, local: local, sums: make(map[string]uint32), buf: make([]byte, 1<<20)}
	for i := 0; i < bulkSources; i++ {
		for _, p := range []string{bulkRemoteSrc(i), bulkLocalSrc(i)} {
			r.sums[p] = streamCRC(keyOf(p, 0), bulkSize, r.buf)
		}
	}
	return r, nil
}

// streamCRC is the crc32c of the first size bytes of stream key.
func streamCRC(key uint64, size int64, buf []byte) uint32 {
	var crc uint32
	for off := int64(0); off < size; off += int64(len(buf)) {
		chunk := buf[:min(int64(len(buf)), size-off)]
		fill(chunk, key, off)
		crc = vfs.CRC32C(crc, chunk)
	}
	return crc
}

// fileCRC reads path on fs to EOF and returns its size and crc32c.
func fileCRC(fs vfs.FileSystem, path string, buf []byte) (int64, uint32, error) {
	f, err := fs.Open(path, vfs.O_RDONLY, 0)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var off int64
	var crc uint32
	for {
		n, err := f.Pread(buf, off)
		if err != nil && !errors.Is(err, io.EOF) {
			return off, crc, err
		}
		if n == 0 {
			return off, crc, nil
		}
		crc = vfs.CRC32C(crc, buf[:n])
		off += int64(n)
	}
}

func (r *bulkRunner) unit(ctx context.Context, _ int, d unitDesc) (int64, error) {
	if d.write {
		dst, src := bulkRemoteDst(d.b), bulkLocalSrc(d.a)
		n, err := vfs.Copy(ctx, vfs.Loc{FS: r.remote, Path: dst}, vfs.Loc{FS: r.local, Path: src}, bulkCopyOptions)
		if err != nil {
			return n, err
		}
		if n != bulkSize {
			return n, fmt.Errorf("put %s: %d bytes: %w", dst, n, errContent)
		}
		r.lastPut[d.b] = d.a
		return n, nil
	}
	dst, src := bulkLocalDst(d.b), bulkRemoteSrc(d.a)
	n, err := vfs.Copy(ctx, vfs.Loc{FS: r.local, Path: dst}, vfs.Loc{FS: r.remote, Path: src}, bulkCopyOptions)
	if err != nil {
		return n, err
	}
	size, crc, err := fileCRC(r.local, dst, r.buf)
	if err != nil {
		return n, err
	}
	if n != bulkSize || size != bulkSize || crc != r.sums[src] {
		return n, fmt.Errorf("get %s: %w", src, errContent)
	}
	return n, nil
}

func (r *bulkRunner) audit(exports []*vfs.LocalFS) (checked, bad int, err error) {
	for slot, src := range r.lastPut {
		checked++
		size, crc, err := fileCRC(exports[0], bulkRemoteDst(slot), r.buf)
		if err != nil || size != bulkSize || crc != r.sums[bulkLocalSrc(src)] {
			bad++
		}
	}
	return checked, bad, nil
}

func (r *bulkRunner) close() error { return nil }

func bulkWire() []proto.Request {
	dst, src := bulkRemoteDst(1), bulkRemoteSrc(2)
	return []proto.Request{
		{Verb: "stat", Path: src},
		{Verb: "getpart", Path: src, Offset: 4 << 20, Length: 4 << 20, Algo: "crc32c"},
		{Verb: "putbegin", Path: dst, Mode: 0o644, Size: bulkSize},
		{Verb: "putpart", Path: dst, Offset: 8 << 20, Length: 4 << 20, Algo: "crc32c"},
		{Verb: "putcomplete", Path: dst, Size: bulkSize, Algo: "crc32c", Sum: "1a2b3c4d"},
	}
}

// ---- dsfs_lan -------------------------------------------------------

const (
	dsfsDirs      = 4
	dsfsFiles     = 256
	dsfsFileSize  = 16 << 10
	dsfsWriteSize = 4 << 10
	dsfsMetaDir   = "/tree"
	dsfsDataDir   = "/data"
)

func dsfsPath(i int) string { return fmt.Sprintf("/d%d/f%03d", i%dsfsDirs, i) }

func dsfsDataName(i int) string { return fmt.Sprintf("data%d", i) }

// composeDSFS puts the directory tree on server 0 and file data on
// servers 1 and 2.
func composeDSFS(st *stack) error {
	ds, err := newDSFS(st.client(0), st.client(1), st.client(2), "bench")
	if err != nil {
		return err
	}
	return st.mount(wrap(ds, st.rec, layerAbstraction))
}

func newDSFS(meta, data0, data1 vfs.FileSystem, clientID string) (*abstraction.Dist, error) {
	return abstraction.NewDSFS(meta, dsfsMetaDir, []abstraction.DataServer{
		{Name: dsfsDataName(0), FS: data0, Dir: dsfsDataDir},
		{Name: dsfsDataName(1), FS: data1, Dir: dsfsDataDir},
	}, abstraction.Options{ClientID: clientID})
}

// seedDSFSStack writes the tree through a second DSFS client whose
// links are unshaped: seeding is set-up, not the measured LAN.
func seedDSFSStack(st *stack) error {
	var fss []vfs.FileSystem
	for _, n := range st.nodes {
		p, err := chirp.NewPool(clientConfig(st.tr, n.addr, netsim.Loopback))
		if err != nil {
			return err
		}
		defer p.Close()
		fss = append(fss, p)
	}
	ds, err := newDSFS(fss[0], fss[1], fss[2], "seed")
	if err != nil {
		return err
	}
	return seedDSFS(seedTarget{dirs: ds, files: ds})
}

func seedDSFS(t seedTarget) error {
	for d := 0; d < dsfsDirs; d++ {
		if err := t.mkdirAll(fmt.Sprintf("/d%d", d)); err != nil {
			return err
		}
	}
	for i := 0; i < dsfsFiles; i++ {
		p := dsfsPath(i)
		if err := t.writeStream(p, dsfsFileSize, keyOf(p, 0)); err != nil {
			return err
		}
	}
	return nil
}

func dsfsPicker(rng *rand.Rand) func(bool) (int, int) {
	return func(write bool) (int, int) {
		if write {
			return rng.Intn(dsfsDirs), 0
		}
		return rng.Intn(dsfsFiles), 0
	}
}

type dsfsRunner struct {
	fs    vfs.FileSystem
	paths []string
	buf   []byte
	wbuf  []byte
}

func startDSFS(top vfs.FileSystem, _ *vfs.LocalFS) (runner, error) {
	r := &dsfsRunner{fs: top, paths: make([]string, dsfsFiles), buf: make([]byte, 64<<10), wbuf: make([]byte, dsfsWriteSize)}
	for i := range r.paths {
		r.paths[i] = dsfsPath(i)
	}
	return r, nil
}

func (r *dsfsRunner) unit(_ context.Context, i int, d unitDesc) (int64, error) {
	if d.write {
		p := "/d" + strconv.Itoa(d.a) + "/t" + strconv.Itoa(i)
		f, err := r.fs.Open(p, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, 0o644)
		if err != nil {
			return 0, err
		}
		fill(r.wbuf, keyOf(p, 0), 0)
		if err := vfs.WriteAll(f, r.wbuf, 0); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		return dsfsWriteSize, r.fs.Unlink(p)
	}
	p := r.paths[d.a]
	fi, err := r.fs.Stat(p)
	if err != nil {
		return 0, err
	}
	if fi.Size != dsfsFileSize {
		return 0, fmt.Errorf("%s: stat size %d: %w", p, fi.Size, errContent)
	}
	return readStream(r.fs, p, fi.Size, keyOf(p, 0), r.buf)
}

// audit follows every stub on the metadata export to its data file on
// the data exports, and checks that the create/unlink units left
// neither a stub nor a data file behind.
func (r *dsfsRunner) audit(exports []*vfs.LocalFS) (checked, bad int, err error) {
	meta, data := exports[0], exports[1:]
	for _, p := range r.paths {
		checked++
		stub, err := vfs.ReadFile(meta, dsfsMetaDir+p)
		if err != nil {
			bad++
			continue
		}
		// Stub body: "<magic> <version> <server> <path>".
		f := strings.Fields(string(stub))
		srv := -1
		if len(f) == 4 {
			for i := range data {
				if f[2] == dsfsDataName(i) {
					srv = i
				}
			}
		}
		if srv < 0 || !auditStream(data[srv], f[3], dsfsFileSize, keyOf(p, 0), r.buf) {
			bad++
		}
	}
	entries := 0
	for d := 0; d < dsfsDirs; d++ {
		ents, err := meta.ReadDir(fmt.Sprintf("%s/d%d", dsfsMetaDir, d))
		if err != nil {
			return checked, bad, err
		}
		entries += countVisible(ents)
	}
	dataFiles := 0
	for _, ex := range data {
		ents, err := ex.ReadDir(dsfsDataDir)
		if err != nil {
			return checked, bad, err
		}
		dataFiles += countVisible(ents)
	}
	checked += 2
	if entries != dsfsFiles {
		bad++
	}
	if dataFiles != dsfsFiles {
		bad++
	}
	return checked, bad, nil
}

// countVisible counts directory entries other than the server's ACL
// file, which a bare LocalFS listing shows.
func countVisible(ents []vfs.DirEntry) int {
	n := 0
	for _, e := range ents {
		if e.Name != chirp.ACLFileName {
			n++
		}
	}
	return n
}

func (r *dsfsRunner) close() error { return nil }

func dsfsWire() []proto.Request {
	p, data := dsfsMetaDir+dsfsPath(9), dsfsDataDir+"/bench.1700000000.42.0a1b2c3d"
	return []proto.Request{
		{Verb: "getfile", Path: p},
		{Verb: "stat", Path: data},
		{Verb: "getfile", Path: p},
		{Verb: "open", Path: data, Flags: vfs.O_RDONLY},
		{Verb: "pread", FD: 3, Length: 64 << 10},
		{Verb: "close", FD: 3},
		{Verb: "open", Path: dsfsMetaDir + "/d1/t4242", Flags: vfs.O_WRONLY | vfs.O_CREAT | vfs.O_EXCL, Mode: 0o644},
		{Verb: "unlink", Path: data},
	}
}

// ---- the table ------------------------------------------------------

var (
	layersFull  = []string{layerApp, layerAdapter, layerAbstraction, layerClient}
	layersCache = []string{layerApp, layerAdapter, layerCache, layerAbstraction, layerClient}
	layersBare  = []string{layerApp, layerClient}
)

func fast100() *transport { return simulated(netsim.Fast100, "netsim-fast100") }

var workloads = []*workload{
	{
		name:  "sp5_cfs",
		why:   "paper section 8 stack, no client cache: per-RPC server cost (dispatch, ACL re-read, confine, LocalFS) and round-trip count do all the work; w units bump the versions a server-side cache must honour",
		units: 20000, warm: 1000, round: 2000, writeEvery: 10, servers: 1,
		layers: layersFull, transport: loopbackTCP, compose: composeCFS,
		seed: seedSP5, picker: sp5Picker, start: startSP5, wire: sp5Wire,
	},
	{
		name:  "sp5_modern",
		why:   "same tree and units through an 8 MiB cache (the library set is 2x that, so eviction runs) over a 2-replica mirror: w units pay fan-out and invalidation; server-side gains should move it far less",
		units: 20000, warm: 2000, round: 2000, writeEvery: 10, servers: 2,
		layers: layersCache, transport: loopbackTCP, compose: composeModern,
		seed: seedSP5, picker: sp5Picker, start: startSP5, wire: sp5Wire,
	},
	{
		name:  "smallio_rw",
		why:   "8 KiB pread/pwrite on one open descriptor: fixed per-RPC cost of the descriptor path (proto parse/encode, buffers, dispatch) with no path, ACL or cache work; writes beside reads on the same layer",
		units: 300000, warm: 15000, round: 20000, writeEvery: 4, servers: 1,
		layers: layersFull, transport: loopbackTCP, compose: composeCFS,
		seed: seedSmall, picker: smallPicker, start: startSmall, wire: smallWire,
	},
	{
		name:  "bulk_xfer",
		why:   "16 MiB verified multipart get/put through the Pool: bytes, not RPCs, dominate (part verbs, crc32c composition, pool fan-out); per-RPC and ACL gains are predicted to leave it unchanged",
		units: 400, warm: 20, round: 40, writeEvery: 2, servers: 1,
		layers: layersBare, transport: loopbackTCP,
		compose:   func(st *stack) error { st.top = st.client(0); return nil },
		seedLocal: seedBulkLocal,
		seed:      seedBulk, picker: bulkPicker, start: startBulk, wire: bulkWire,
	},
	{
		name:  "dsfs_lan",
		why:   "DSFS (1 metadata + 2 data servers) over simulated 100 Mb/s Ethernet: the wire dominates, so only round-trip count and stub-then-data sequencing show (paper Fig 4); CPU gains should not move it",
		units: 2000, warm: 100, round: 400, writeEvery: 4, servers: 3,
		layers: layersFull, transport: fast100, compose: composeDSFS,
		seed: seedDSFS, seedStack: seedDSFSStack, picker: dsfsPicker, start: startDSFS, wire: dsfsWire,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
