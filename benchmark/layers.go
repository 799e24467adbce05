package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"tss/internal/acl"
	"tss/internal/chirp"
	"tss/internal/chirp/proto"
	"tss/internal/netsim"
	"tss/internal/vfs"
)

// measureLayers is the per-layer measurement of w. It measures twice —
// once end to end on a bare stack, once on a stack with a spanFS on
// every boundary and ServerConfig.Metrics on — so the tracing overhead
// is itself a result, then takes the direct probes and the ceilings.
// With sp.units 0 each half gets half of sp.seconds. traceOut, when not
// empty, receives the spans as JSONL. It returns the per-layer result
// and the bare half's end-to-end result.
func measureLayers(ctx context.Context, w *workload, scratch string, sp spec, traceOut string) (layers, bare *result, err error) {
	sp.seconds /= 2
	m := map[string]float64{}
	res := &result{metrics: m}

	// Bare half: the reference the traced half is compared with, and the
	// source of what tracing must not perturb (p99, GC cycles).
	if bare, err = measureEndToEnd(ctx, w, scratch, sp, 1); err != nil {
		return nil, nil, err
	}
	res.attempted, res.failed, res.firstErr = bare.attempted, bare.failed, bare.firstErr
	m["client.read_p99_us"] = bare.phase.lowest(func(r *roundStat) float64 { return r.p99[0] })
	m["client.write_p99_us"] = bare.phase.lowest(func(r *roundStat) float64 { return r.p99[1] })
	m["runtime.gc_cycles_per_kop"] = float64(bare.phase.gcCycles) / float64(bare.phase.units) * 1000

	// Traced half.
	dir, err := os.MkdirTemp(scratch, w.name+"-traced-")
	if err != nil {
		return nil, nil, err
	}
	s, err := setup(ctx, w, dir, sp, true)
	if err != nil {
		return nil, nil, err
	}
	st := s.st
	c0 := st.counters()
	rpc0, rpcNS0, fast0 := st.serverRPC()
	traced := s.phase(ctx, sp)
	c1 := st.counters()
	rpc1, rpcNS1, fast1 := st.serverRPC()
	conns := st.conns()
	spans, dropped := st.rec.spans(), st.rec.dropped
	tr := analyze(spans, len(st.rec.layers))
	if traceOut != "" {
		if err := writeTrace(traceOut, st.rec.layers, spans, tr); err != nil {
			s.close(ctx)
			return nil, nil, err
		}
	}
	perr := probe(ctx, w, s, scratch, sp, m)
	checked, bad, err := s.audit()
	if err == nil {
		err = perr
	}
	if cerr := s.close(ctx); err == nil {
		err = cerr
	}
	if err == nil && dropped > 0 {
		err = fmt.Errorf("span buffer full: %d spans dropped; shorten the traced phase", dropped)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.attempted += traced.units + checked
	res.failed += traced.failed + bad
	if res.firstErr == nil {
		res.firstErr = traced.firstErr
	}
	res.units = traced.units

	ops := float64(traced.units)
	layer := func(name string) layerTime {
		if i := st.rec.layerIndex(name); i >= 0 {
			return tr.layers[i]
		}
		return layerTime{}
	}
	selfUS := func(name string) float64 { return layer(name).selfNS / ops / 1e3 }
	ratio := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	// below returns the boundary under the named one: its spans are the
	// named layer's calls into the next layer down.
	below := func(name string) layerTime {
		if i := st.rec.layerIndex(name); i >= 0 && i+1 < len(tr.layers) {
			return tr.layers[i+1]
		}
		return layerTime{}
	}
	client := layer(layerClient)
	m["app.self_us_per_op"] = selfUS(layerApp)
	m["adapter.calls_per_op"] = float64(layer(layerAdapter).calls) / ops
	m["adapter.self_us_per_op"] = selfUS(layerAdapter)
	m["adapter.retries"] = float64(c1.retries - c0.retries)
	m["adapter.reconnects"] = float64(c1.reconnects - c0.reconnects)
	m["adapter.gave_up"] = float64(c1.gaveUp - c0.gaveUp)
	m["cache.self_us_per_op"] = selfUS(layerCache)
	m["cache.inner_calls_per_op"] = float64(below(layerCache).calls) / ops
	cs0, cs1 := c0.cache, c1.cache
	m["cache.attr_hit_ratio"] = ratio(cs1.AttrHits-cs0.AttrHits, cs1.AttrMisses-cs0.AttrMisses)
	m["cache.dirent_hit_ratio"] = ratio(cs1.DirentHits-cs0.DirentHits, cs1.DirentMisses-cs0.DirentMisses)
	m["cache.page_hit_ratio"] = ratio(cs1.PageHits-cs0.PageHits, cs1.PageMisses-cs0.PageMisses)
	m["cache.renewals_per_op"] = float64(cs1.Renewals-cs0.Renewals) / ops
	m["cache.invalidations_per_op"] = float64(cs1.Invalidations-cs0.Invalidations) / ops
	m["cache.flushes_per_op"] = float64(cs1.Flushes-cs0.Flushes) / ops
	m["abstraction.self_us_per_op"] = selfUS(layerAbstraction)
	m["abstraction.inner_calls_per_op"] = float64(below(layerAbstraction).calls) / ops
	m["abstraction.hedges"] = float64(c1.hedges - c0.hedges)
	m["abstraction.breaker_trips"] = float64(c1.tripped - c0.tripped)
	m["resilient.budget_exhausted"] = float64(c1.budgetExhausted - c0.budgetExhausted)
	m["chirp_client.rpcs_per_op"] = float64(client.calls) / ops
	if client.calls > 0 {
		m["chirp_client.rpc_us_mean"] = float64(client.durNS) / float64(client.calls) / 1e3
	}
	m["chirp_client.conns"] = float64(conns)
	m["chirp_server.requests_per_op"] = float64(c1.requests-c0.requests) / ops
	if n := rpc1 - rpc0; n > 0 {
		m["chirp_server.service_us_per_rpc"] = float64(rpcNS1-rpcNS0) / float64(n) / 1e3
	}
	m["chirp_server.bytes_in_per_op"] = float64(c1.bytesIn-c0.bytesIn) / ops
	m["chirp_server.bytes_out_per_op"] = float64(c1.bytesOut-c0.bytesOut) / ops
	m["chirp_server.lease_grants_per_op"] = float64(c1.leaseGrants-c0.leaseGrants) / ops
	m["chirp_server.lease_breaks_per_op"] = float64(c1.leaseBreaks-c0.leaseBreaks) / ops
	m["chirp_server.bulk_fastpath_per_op"] = float64(fast1-fast0) / ops
	m["chirp_server.shed"] = float64(c1.shed - c0.shed)
	m["chirp_server.deadline_rejects"] = float64(c1.deadlineRejects - c0.deadlineRejects)
	m["wire.us_per_rpc"] = m["chirp_client.rpc_us_mean"] - m["chirp_server.service_us_per_rpc"]
	if v := m["vfs.local_replay_ops_per_s"]; v > 0 {
		m["ceiling.local_fraction"] = bare.metrics["ops_per_s"] / v
	}
	if v := m["ceiling.tcp_stream_mb_s"]; v > 0 {
		m["ceiling.bulk_fraction"] = bare.metrics["mb_per_s"] / v
	}
	m["trace.closure_ratio"] = tr.closure()
	m["trace.overhead_ratio"] = traced.opsPerS() / bare.metrics["ops_per_s"]
	m["trace.spans_per_op"] = float64(len(spans)) / ops
	for _, d := range perLayerDefs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return res, bare, nil
}

// probe times public functions of single layers on the workload's own
// inputs, and the raw ceilings of the machine, into m. It runs after the
// timed phase on the still-open traced stack s.
func probe(ctx context.Context, w *workload, s *session, scratch string, sp spec, m map[string]float64) error {
	if err := probeProto(w.wire(), m); err != nil {
		return err
	}
	if err := probeACL(s.st, m); err != nil {
		return err
	}
	if err := probeReplay(ctx, w, scratch, sp, m); err != nil {
		return err
	}
	if err := probeDial(s.st, m); err != nil {
		return err
	}
	if w.seedLocal != nil {
		if err := probePlainBulk(s.st, m); err != nil {
			return err
		}
	}
	var err error
	if m["ceiling.tcp_null_rtt_us"], err = pingPong(tcpPair); err != nil {
		return err
	}
	if m["ceiling.netsim_null_rtt_us"], err = pingPong(func() (connPair, error) {
		c, srv := netsim.Pipe(netsim.Fast100)
		return connPair{c, srv}, nil
	}); err != nil {
		return err
	}
	m["ceiling.tcp_stream_mb_s"], err = tcpStream()
	return err
}

// probeProto times request parse and encode over the lines the
// workload's units put on the wire.
func probeProto(reqs []proto.Request, m map[string]float64) error {
	lines := make([]string, len(reqs))
	for i := range reqs {
		l, err := reqs[i].Encode()
		if err != nil {
			return err
		}
		if _, err := proto.ParseRequest(l); err != nil {
			return err
		}
		lines[i] = l
	}
	const passes = 2000
	n := float64(passes * len(lines))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, l := range lines {
			if _, err := proto.ParseRequest(l); err != nil {
				return err
			}
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	m["proto.parse_ns_per_req"] = float64(el) / n
	m["proto.parse_allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	buf := make([]byte, 0, 256)
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for i := range reqs {
			var err error
			if buf, err = reqs[i].AppendTo(buf[:0]); err != nil {
				return err
			}
		}
	}
	m["proto.encode_ns_per_req"] = float64(time.Since(t0)) / n
	return nil
}

// probeACL times what the server does for the ACL on every
// path-addressed request: parse the directory's ACL file and check the
// caller's rights.
func probeACL(st *stack, m map[string]float64) error {
	data, err := os.ReadFile(filepath.Join(st.nodes[0].root, chirp.ACLFileName))
	if err != nil {
		return err
	}
	subject := string(st.tr.owner())
	const passes = 20000
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		l, err := acl.Parse(data)
		if err != nil {
			return err
		}
		if !l.Allows(subject, acl.R|acl.L) {
			return fmt.Errorf("acl probe: %s lacks rl on the export root", subject)
		}
	}
	m["acl.parse_check_ns"] = float64(time.Since(t0)) / passes
	return nil
}

// probeReplay runs the workload's own unit stream straight onto a
// vfs.LocalFS holding the same tree — the paper's "Unix" row, the
// ceiling no remote stack can beat.
func probeReplay(ctx context.Context, w *workload, scratch string, sp spec, m map[string]float64) error {
	dir, err := os.MkdirTemp(scratch, w.name+"-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tree, err := newLocalDir(filepath.Join(dir, "tree"))
	if err != nil {
		return err
	}
	if err := w.seed(seedTarget{dirs: tree, files: tree}); err != nil {
		return err
	}
	var local *vfs.LocalFS
	if w.seedLocal != nil {
		if local, err = newLocalDir(filepath.Join(dir, "scratch")); err != nil {
			return err
		}
		if err := w.seedLocal(local); err != nil {
			return err
		}
	}
	run, err := w.start(tree, local)
	if err != nil {
		return err
	}
	// One round of the same stream, or the whole timed phase when that
	// is shorter.
	one := spec{seed: sp.seed, units: w.round} // no stack, nothing to settle
	if sp.units > 0 {
		one.units = min(one.units, sp.units)
	}
	s := &session{w: w, st: &stack{}, run: run, plan: w.plan(one.seed)}
	s.units(ctx, one.warm(w), nil)
	ph := s.phase(ctx, one)
	if err := run.close(); err != nil {
		return err
	}
	if ph.failed > 0 {
		return fmt.Errorf("local replay: %w", ph.firstErr)
	}
	m["vfs.local_replay_ops_per_s"] = ph.opsPerS()
	m["vfs.local_read_p50_us"] = ph.rounds[0].p50[0]
	return nil
}

// probeDial times dial + authenticate on the stack's transport.
func probeDial(st *stack, m map[string]float64) error {
	cfg := clientConfig(st.tr, st.nodes[0].addr, st.tr.prof)
	us := make([]float64, 15)
	for i := range us {
		t0 := time.Now()
		c, err := chirp.Dial(cfg)
		if err != nil {
			return err
		}
		us[i] = float64(time.Since(t0)) / 1e3
		if err := c.Close(); err != nil {
			return err
		}
	}
	m["auth.dial_auth_us"] = median(us)
	return nil
}

// probePlainBulk times the single-stream whole-file verbs (the
// server's sendfile path) on the transfer workload's own files: what
// the multipart engine has to beat.
func probePlainBulk(st *stack, m map[string]float64) error {
	caps := vfs.Capabilities(st.pools[0])
	get, put := make([]float64, 3), make([]float64, 3)
	src, err := st.local.Open(bulkLocalSrc(0), vfs.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer src.Close()
	for i := range get {
		t0 := time.Now()
		n, err := caps.FileGetter.GetFile(bulkRemoteSrc(i%bulkSources), io.Discard)
		if err != nil {
			return err
		}
		get[i] = float64(n) / (1 << 20) / time.Since(t0).Seconds()
		t0 = time.Now()
		r := io.NewSectionReader(preadAt{src}, 0, bulkSize)
		if err := caps.FilePutter.PutFile("/bulk/plain.bin", 0o644, bulkSize, r); err != nil {
			return err
		}
		put[i] = bulkSize / (1 << 20) / time.Since(t0).Seconds()
	}
	m["chirp_client.getfile_plain_mb_s"] = median(get)
	m["chirp_client.putfile_plain_mb_s"] = median(put)
	return st.pools[0].Unlink("/bulk/plain.bin")
}

// preadAt adapts a vfs.File to io.ReaderAt.
type preadAt struct{ f vfs.File }

func (p preadAt) ReadAt(b []byte, off int64) (int, error) {
	n, err := p.f.Pread(b, off)
	if err == nil && n < len(b) {
		err = io.EOF
	}
	return n, err
}

// connPair is both ends of one connection.
type connPair struct{ client, server net.Conn }

func (p connPair) Close() {
	p.client.Close()
	p.server.Close()
}

func tcpPair() (connPair, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return connPair{}, err
	}
	defer l.Close()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return connPair{}, err
	}
	server, err := l.Accept()
	if err != nil {
		client.Close()
		return connPair{}, err
	}
	return connPair{client, server}, nil
}

// pingPong is the null round trip of a transport: one byte there, one
// byte back, median of many, in µs.
func pingPong(pair func() (connPair, error)) (float64, error) {
	p, err := pair()
	if err != nil {
		return 0, err
	}
	defer p.Close()
	client, server := p.client, p.server
	const trips = 500
	echoed := make(chan error, 1)
	go func() {
		b := make([]byte, 1)
		for i := 0; i < trips; i++ {
			if _, err := io.ReadFull(server, b); err != nil {
				echoed <- err
				return
			}
			if _, err := server.Write(b); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	us := make([]float64, trips)
	b := []byte{1}
	for i := range us {
		t0 := time.Now()
		if _, err = client.Write(b); err == nil {
			_, err = io.ReadFull(client, b)
		}
		if err != nil {
			client.Close()
			<-echoed
			return 0, err
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	if err := <-echoed; err != nil {
		return 0, err
	}
	slices.Sort(us)
	return us[len(us)/2], nil
}

// tcpStream is what one loopback TCP connection carries when nothing
// but the kernel is in the way, in MiB/s.
func tcpStream() (float64, error) {
	p, err := tcpPair()
	if err != nil {
		return 0, err
	}
	defer p.Close()
	client, server := p.client, p.server
	const total = 64 << 20
	drained := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, server, total)
		drained <- err
	}()
	buf := make([]byte, 1<<20)
	t0 := time.Now()
	for sent := 0; sent < total; sent += len(buf) {
		if _, err := client.Write(buf); err != nil {
			client.Close()
			<-drained
			return 0, err
		}
	}
	if err := <-drained; err != nil {
		return 0, err
	}
	return total / (1 << 20) / time.Since(t0).Seconds(), nil
}
