package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// LockHeld forbids blocking calls — network I/O, RPC round trips,
// time.Sleep — while a sync.Mutex or sync.RWMutex is held in the same
// function body. A blocked goroutine that owns a mutex convoys every
// other goroutine behind a network peer's latency; in a storage stack
// where each layer serializes on locks, one slow replica can freeze an
// entire abstraction. Sites where holding the lock across I/O *is* the
// design (the chirp client serializes RPCs on its single connection)
// carry a //lint:ignore lockheld comment explaining exactly that.
//
// The analysis is a forward may-analysis over the function's CFG: a
// mutex is held at a program point if some path reaches it with
// X.Lock() not yet matched by X.Unlock() on the same receiver
// expression; `defer X.Unlock()` holds it to every exit. Running on
// the CFG (rather than source order) means an Unlock in both arms of a
// branch really releases before the join, and a Lock taken in one arm
// is still held on the joined path — the PR 3 walker got both wrong.
// Function literals (including goroutine and deferred bodies) are
// analyzed as independent functions, since they generally run outside
// the critical section.
type LockHeld struct {
	// Blocking is the deny-list of fully qualified callee names
	// considered blocking.
	Blocking map[string]bool
}

// NewLockHeld returns the checker configured for this repository.
func NewLockHeld() *LockHeld {
	return &LockHeld{
		Blocking: map[string]bool{
			// Sleeping.
			"time.Sleep": true,
			// Dialing and listening.
			"net.Dial":                  true,
			"net.DialTimeout":           true,
			"net.DialTCP":               true,
			"net.DialUDP":               true,
			"net.DialUnix":              true,
			"net.DialIP":                true,
			"net.Listen":                true,
			"net.ListenTCP":             true,
			"net.ListenPacket":          true,
			"(*net.Dialer).Dial":        true,
			"(*net.Dialer).DialContext": true,
			// Stream I/O on sockets.
			"(net.Conn).Read":           true,
			"(net.Conn).Write":          true,
			"(*net.TCPConn).Read":       true,
			"(*net.TCPConn).Write":      true,
			"(net.PacketConn).ReadFrom": true,
			"(net.PacketConn).WriteTo":  true,
			// Buffered readers block on their underlying source; Flush
			// pushes buffered bytes into the socket. (Buffered writes
			// themselves usually complete in memory and are not listed.)
			"(*bufio.Reader).Read":       true,
			"(*bufio.Reader).ReadString": true,
			"(*bufio.Reader).ReadBytes":  true,
			"(*bufio.Reader).ReadByte":   true,
			"(*bufio.Reader).ReadRune":   true,
			"(*bufio.Reader).ReadLine":   true,
			"(*bufio.Reader).ReadSlice":  true,
			"(*bufio.Writer).Flush":      true,
			// Chirp protocol round trips read from the connection
			// (testdata/lockheld/bad/chirp.go pins both readers).
			"tss/internal/chirp/proto.ReadLine": true,
			"tss/internal/chirp/proto.ReadCode": true,
			// The authentication dialog is a multi-round network
			// exchange.
			"tss/internal/auth.Login": true,
		},
	}
}

// Name implements Checker.
func (c *LockHeld) Name() string { return "lockheld" }

// Doc implements Checker.
func (c *LockHeld) Doc() string {
	return "no blocking call (net I/O, RPC, time.Sleep) while a sync mutex is held"
}

// Check implements Checker.
func (c *LockHeld) Check(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		funcBodies(f, func(body *ast.BlockStmt, _ *ast.FuncDecl) {
			diags = append(diags, c.checkBody(pkg, body)...)
		})
	}
	return diags
}

// lockFlow is the dataflow problem: facts are receiver-expression
// strings of held mutexes.
type lockFlow struct {
	c     *LockHeld
	pkg   *Package
	diags []Diagnostic // only appended during the reporting pass
}

func (c *LockHeld) checkBody(pkg *Package, body *ast.BlockStmt) []Diagnostic {
	g := BuildCFG(pkg, body)
	w := &lockFlow{c: c, pkg: pkg}
	p := &flowProblem[string]{transfer: func(n any, s factSet[string]) factSet[string] {
		return w.apply(n.(ast.Node), s, false)
	}}
	in := p.solve(g)
	// Reporting pass: replay each block once against its fixpoint IN
	// state so every blocking call sees exactly the may-held set.
	for _, b := range g.Blocks {
		s := in[b].clone()
		for _, n := range b.Nodes {
			s = w.apply(n, s, true)
		}
	}
	return w.diags
}

// apply transfers one CFG node over the held set, flagging blocking
// calls when report is set. Nested function literals are skipped: they
// are independent bodies with their own (empty) lock state.
func (w *lockFlow) apply(node ast.Node, s factSet[string], report bool) factSet[string] {
	// `defer X.Unlock()` keeps X held to function end: no kill.
	if d, ok := node.(*ast.DeferStmt); ok {
		if op, _ := w.mutexOp(d.Call); op != "" {
			return s
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			s = w.call(x, s, report)
		}
		return true
	})
	return s
}

// mutexOp classifies call as a sync lock/unlock operation, returning
// the method name and receiver expression string, or "".
func (w *lockFlow) mutexOp(call *ast.CallExpr) (op, recv string) {
	name := calleeName(w.pkg.Info, call)
	switch name {
	case "(*sync.Mutex).Lock", "(*sync.Mutex).Unlock",
		"(*sync.Mutex).TryLock",
		"(*sync.RWMutex).Lock", "(*sync.RWMutex).Unlock",
		"(*sync.RWMutex).RLock", "(*sync.RWMutex).RUnlock",
		"(*sync.RWMutex).TryLock", "(*sync.RWMutex).TryRLock":
	default:
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return name[strings.LastIndexByte(name, '.')+1:], exprString(sel.X)
}

func (w *lockFlow) call(call *ast.CallExpr, s factSet[string], report bool) factSet[string] {
	if op, recv := w.mutexOp(call); op != "" {
		switch op {
		case "Lock", "RLock", "TryLock", "TryRLock":
			s[recv] = struct{}{}
		case "Unlock", "RUnlock":
			delete(s, recv)
		}
		return s
	}
	if !report {
		return s
	}
	name := calleeName(w.pkg.Info, call)
	if name == "" || !w.c.Blocking[name] || len(s) == 0 {
		return s
	}
	pos := w.pkg.Fset.Position(call.Pos())
	if isTestFile(pos) {
		return s
	}
	var held []string
	for m := range s {
		held = append(held, m)
	}
	sort.Strings(held)
	w.diags = append(w.diags, w.pkg.diag(w.c.Name(), call.Pos(),
		"blocking call %s while holding %s", name, strings.Join(held, ", ")))
	return s
}
