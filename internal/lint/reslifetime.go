package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ResLifetime verifies that every acquired resource — a vfs.File,
// *os.File, net.Conn/Listener, chirp.Client — is released on
// every path out of the acquiring function: an explicit Close, a
// deferred Close (directly or inside a deferred literal), or an
// ownership transfer (returning the value, storing it into a struct,
// slice, map or channel, or passing it to another function). The
// paper's abstraction/resource separation only holds while resource
// lifetimes are disciplined; an fd leaked on an early error return is
// exactly the kind of bug that survives every happy-path test and
// kills a long-running server.
//
// The analysis is a forward may-analysis over the function CFG. A
// local variable becomes "live" when bound to the resource-typed
// result of a call; it dies at a release, at any escaping use
// (conservative: once ownership may have moved we never report), and
// on the failure edge of its paired error check — after
//
//	f, err := os.Open(p)
//
// the `err != nil` edge carries no open file, so the early return
// inside that branch is clean. A resource still live on a non-panic
// edge into Exit is reported at its acquisition site.
type ResLifetime struct {
	// Resources is the set of qualified type names ("os.File",
	// "tss/internal/vfs.File") whose values are tracked. Pointers and
	// aliases are unwrapped first.
	Resources map[string]bool
	// Borrowers are function or method names whose resource-typed
	// results are owned elsewhere; calls to them never count as
	// acquisitions. vfs.OSFiler.OSFile and chirp's osFileOf/bulkConn
	// hand out views of files and connections the caller must not
	// close; the experiments Env factories register their clients for
	// Env.Close.
	Borrowers map[string]bool
}

// NewResLifetime returns the checker configured for this repository.
func NewResLifetime() *ResLifetime {
	return &ResLifetime{
		Resources: map[string]bool{
			"os.File":                   true,
			"net.Conn":                  true,
			"net.TCPConn":               true,
			"net.UDPConn":               true,
			"net.UnixConn":              true,
			"net.IPConn":                true,
			"net.Listener":              true,
			"tss/internal/vfs.File":     true,
			"tss/internal/chirp.Client": true,
		},
		Borrowers: map[string]bool{
			"OSFile":     true,
			"osFileOf":   true,
			"bulkConn":   true,
			"StartChirp": true,
			"DialChirp":  true,
		},
	}
}

// Name implements Checker.
func (c *ResLifetime) Name() string { return "reslifetime" }

// Doc implements Checker.
func (c *ResLifetime) Doc() string {
	return "acquired files/conns/clients are closed, deferred or ownership-transferred on every path"
}

// Check implements Checker.
func (c *ResLifetime) Check(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		funcBodies(f, func(body *ast.BlockStmt, _ *ast.FuncDecl) {
			diags = append(diags, c.checkBody(pkg, body)...)
		})
	}
	return diags
}

// resFlow carries the per-body analysis state.
type resFlow struct {
	c   *ResLifetime
	pkg *Package
	// body is the block under analysis; only variables declared inside
	// it are tracked. A closure assigning a captured variable
	// (f, e = fs.Open(...) inside a retry callback) is filling a slot
	// the enclosing function owns — the obligation is the encloser's.
	body *ast.BlockStmt
	// acquire records where each tracked variable was bound, for
	// diagnostics.
	acquire map[*types.Var]token.Pos
	// typeName records the rendered resource type per variable.
	typeName map[*types.Var]string
	// errBinds records, per error variable, every position where it was
	// (re)bound and the resource acquired alongside it (nil when the
	// binding carried no acquisition). A nil-check on the error resolves
	// against the latest binding before the check, so a later
	//
	//	n, err := f.Pread(buf, 0)
	//
	// stops the original os.Open pairing from excusing f on its arm.
	errBinds map[*types.Var]map[token.Pos]*types.Var
}

// recordErrBind notes a binding of err at pos; an acquisition pairing
// (res != nil) wins over the bare rebinding note taken at the same
// position.
func (w *resFlow) recordErrBind(err *types.Var, pos token.Pos, res *types.Var) {
	m := w.errBinds[err]
	if m == nil {
		m = make(map[token.Pos]*types.Var)
		w.errBinds[err] = m
	}
	if res != nil || m[pos] == nil {
		m[pos] = res
	}
}

// pairedRes returns the resource paired with the latest binding of v
// strictly before at, or nil.
func (w *resFlow) pairedRes(v *types.Var, at token.Pos) *types.Var {
	best := token.NoPos
	var res *types.Var
	for pos, r := range w.errBinds[v] {
		if pos < at && pos > best {
			best, res = pos, r
		}
	}
	return res
}

func (c *ResLifetime) checkBody(pkg *Package, body *ast.BlockStmt) []Diagnostic {
	w := &resFlow{
		c:        c,
		pkg:      pkg,
		body:     body,
		acquire:  make(map[*types.Var]token.Pos),
		typeName: make(map[*types.Var]string),
		errBinds: make(map[*types.Var]map[token.Pos]*types.Var),
	}
	g := BuildCFG(pkg, body)
	p := &flowProblem[*types.Var]{
		transfer: func(n any, s factSet[*types.Var]) factSet[*types.Var] {
			return w.transfer(n.(ast.Node), s)
		},
		refine: w.refine,
	}
	in := p.solve(g)

	// Leak detection: replay each block that flows into Exit and
	// report what is still live on its non-panic exit edges. Each
	// acquisition is reported once, at its own position, with the
	// first leaking exit as witness.
	type leak struct {
		v    *types.Var
		exit token.Pos
	}
	var leaks []leak
	seen := make(map[*types.Var]bool)
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		exits := false
		for _, e := range b.Succs {
			if e.To == g.Exit && !e.Panic {
				exits = true
			}
		}
		if !exits {
			continue
		}
		s := in[b].clone()
		for _, n := range b.Nodes {
			s = w.transfer(n, s)
		}
		exitPos := body.End()
		if len(b.Nodes) > 0 {
			exitPos = b.Nodes[len(b.Nodes)-1].Pos()
		}
		for v := range s {
			if !seen[v] {
				seen[v] = true
				leaks = append(leaks, leak{v, exitPos})
			}
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return w.acquire[leaks[i].v] < w.acquire[leaks[j].v] })
	var diags []Diagnostic
	for _, l := range leaks {
		pos := w.pkg.Fset.Position(w.acquire[l.v])
		if isTestFile(pos) {
			continue
		}
		diags = append(diags, w.pkg.diag(c.Name(), w.acquire[l.v],
			"%s (%s) acquired here may not be released on the path exiting at line %d; close it, defer the close, or transfer ownership",
			l.v.Name(), w.typeName[l.v], w.pkg.Fset.Position(l.exit).Line))
	}
	return diags
}

// isResource reports whether t (unwrapped) is a tracked resource type,
// returning its rendered name.
func (w *resFlow) isResource(t types.Type) (string, bool) {
	t = types.Unalias(t)
	ptr := false
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
		ptr = true
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || !w.c.Resources[obj.Pkg().Path()+"."+obj.Name()] {
		return "", false
	}
	name := obj.Pkg().Name() + "." + obj.Name()
	if ptr {
		name = "*" + name
	}
	return name, true
}

// transfer applies one CFG node: acquisitions gen facts, releases and
// escaping uses kill them.
func (w *resFlow) transfer(node ast.Node, s factSet[*types.Var]) factSet[*types.Var] {
	// Uses first: the RHS of an assignment consumes old facts before
	// the LHS binds new ones.
	w.scanUses(node, s)
	switch st := node.(type) {
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			w.bind(st.Lhs, st.Rhs[0], s)
		} else {
			for i := range st.Rhs {
				if i < len(st.Lhs) {
					w.bind(st.Lhs[i:i+1], st.Rhs[i], s)
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == 1 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					w.bind(lhs, vs.Values[0], s)
				}
			}
		}
	}
	return s
}

// bind processes one assignment target list against one RHS value: a
// call with resource-typed results gens the bound locals and pairs the
// error result; copying a live resource to a fresh local transfers the
// fact to the new name.
func (w *resFlow) bind(lhs []ast.Expr, rhs ast.Expr, s factSet[*types.Var]) {
	rhs = ast.Unparen(rhs)
	// Any binding of an error variable supersedes its earlier pairing;
	// acquisitions below re-pair at the same position.
	for _, l := range lhs {
		if v := w.localVar(l); v != nil && isErrorType(v.Type()) {
			w.recordErrBind(v, l.Pos(), nil)
		}
	}
	// Alias transfer: g := f moves the obligation to g.
	if id, ok := rhs.(*ast.Ident); ok && len(lhs) == 1 {
		if src := w.trackedVar(id); src != nil && s.has(src) {
			if dst := w.localVar(lhs[0]); dst != nil {
				delete(s, src)
				s[dst] = struct{}{}
				w.acquire[dst] = w.acquire[src]
				w.typeName[dst] = w.typeName[src]
			}
		}
		return
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if w.c.Borrowers[fun.Sel.Name] {
			return
		}
	case *ast.Ident:
		if w.c.Borrowers[fun.Name] {
			return
		}
	}
	tv, ok := w.pkg.Info.Types[call]
	if !ok {
		return
	}
	// Result types, position-aligned with lhs.
	var results []types.Type
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			results = append(results, tup.At(i).Type())
		}
	} else {
		results = []types.Type{tv.Type}
	}
	if len(results) != len(lhs) {
		return
	}
	var acquired []*types.Var
	for i, t := range results {
		name, ok := w.isResource(t)
		if !ok {
			continue
		}
		v := w.localVar(lhs[i])
		if v == nil {
			continue
		}
		s[v] = struct{}{}
		w.acquire[v] = lhs[i].Pos()
		w.typeName[v] = name
		acquired = append(acquired, v)
	}
	if len(acquired) == 0 {
		return
	}
	// Pair the error result (if any) with the acquisitions so the
	// err != nil edge can kill them.
	for i, t := range results {
		if !isErrorType(t) {
			continue
		}
		if ev := w.localVar(lhs[i]); ev != nil {
			w.recordErrBind(ev, lhs[i].Pos(), acquired[0])
		}
	}
}

// localVar resolves an assignment target to a plain variable declared
// inside the analyzed body; a field, index, blank, captured or
// package-level target returns nil.
func (w *resFlow) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, ok := w.pkg.Info.Defs[id].(*types.Var)
	if !ok {
		// Reassignment targets resolve through Uses.
		v, ok = w.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return nil
		}
	}
	// Accept variables declared inside the body, plus parameters and
	// named results of the function that owns it — the function scope
	// ends exactly where the body does. Everything else — package-level
	// vars (long-lived by design) and variables captured from an
	// enclosing function (the encloser's obligation, not this
	// closure's) — is not tracked.
	if v.Pos() >= w.body.Pos() && v.Pos() < w.body.End() {
		return v
	}
	if p := v.Parent(); p != nil && p.End() == w.body.End() {
		return v
	}
	return nil
}

// trackedVar resolves an expression to a variable present in the
// acquisition table.
func (w *resFlow) trackedVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := w.pkg.Info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = w.pkg.Info.Defs[id].(*types.Var)
	}
	if v == nil {
		return nil
	}
	if _, tracked := w.acquire[v]; !tracked {
		return nil
	}
	return v
}

// scanUses kills facts for releases and escaping uses inside the node.
// Exempt (borrowing) uses: the receiver of a method call, a comparison
// against nil, and the write side of an assignment. Everything else —
// argument position, return results, composite literals, sends,
// appends — may transfer ownership, and a transferred resource is the
// new owner's to close.
func (w *resFlow) scanUses(node ast.Node, s factSet[*types.Var]) {
	exempt := make(map[*ast.Ident]bool)
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if v := w.trackedVar(id); v != nil {
						// Method call on the resource: a release if the
						// method closes it, a borrow otherwise.
						if sel.Sel.Name == "Close" {
							delete(s, v)
						}
						exempt[id] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				if isNilExpr(x.Y) {
					if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
						exempt[id] = true
					}
				}
				if isNilExpr(x.X) {
					if id, ok := ast.Unparen(x.Y).(*ast.Ident); ok {
						exempt[id] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					exempt[id] = true
				}
			}
			// A pure alias (g := f) is handled by bind as an ownership
			// transfer, not an escape — but only when the target is a
			// plain local. Storing into a field or element (af.f = f)
			// hands the resource to the containing object: that is an
			// escape, and the object's Close owns it from here.
			if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
				if _, ok := ast.Unparen(x.Lhs[0]).(*ast.Ident); ok {
					if id, ok := ast.Unparen(x.Rhs[0]).(*ast.Ident); ok {
						exempt[id] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || exempt[id] {
			return true
		}
		if v := w.trackedVar(id); v != nil && s.has(v) {
			delete(s, v) // escaping use: ownership may have moved
		}
		return true
	})
}

// refine interprets branch conditions on edges: the failure arm of a
// paired error check carries no acquired resource, a nil check on the
// resource itself clears it on the nil arm, and the repo's errno idiom
// — switch vfs.AsErrno(err) or a comparison against a vfs.Errno
// constant — clears the paired acquisition on every arm that implies
// the error was non-nil.
func (w *resFlow) refine(e *Edge, s factSet[*types.Var]) factSet[*types.Var] {
	if e.Tag != nil {
		return w.refineErrnoSwitch(e, s)
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return s
	}
	if out, ok := w.refineErrnoCompare(bin, e.Negated, s); ok {
		return out
	}
	var operand ast.Expr
	switch {
	case isNilExpr(bin.Y):
		operand = bin.X
	case isNilExpr(bin.X):
		operand = bin.Y
	default:
		return s
	}
	id, ok := ast.Unparen(operand).(*ast.Ident)
	if !ok {
		return s
	}
	v, _ := w.pkg.Info.Uses[id].(*types.Var)
	if v == nil {
		return s
	}
	// nonNilArm: the edge taken when the operand is non-nil.
	nonNilArm := (bin.Op == token.NEQ) != e.Negated
	if r := w.pairedRes(v, bin.Pos()); r != nil && s.has(r) {
		if nonNilArm {
			// err != nil: the acquisition failed, nothing to close.
			out := s.clone()
			delete(out, r)
			return out
		}
		return s
	}
	if _, tracked := w.acquire[v]; tracked && s.has(v) && !nonNilArm {
		// resource == nil: nothing to close on this arm.
		out := s.clone()
		delete(out, v)
		return out
	}
	return s
}

// refineErrnoSwitch interprets one edge out of a `switch
// vfs.AsErrno(err)` dispatch. The EOK arm is the success path; an arm
// matching only non-EOK errnos — or the default arm when EOK appears
// among the other cases — implies the acquisition paired with err
// failed and left nothing to close.
func (w *resFlow) refineErrnoSwitch(e *Edge, s factSet[*types.Var]) factSet[*types.Var] {
	v := w.errnoArg(e.Tag)
	if v == nil {
		return s
	}
	r := w.pairedRes(v, e.Tag.Pos())
	if r == nil || !s.has(r) {
		return s
	}
	fail := false
	if len(e.Cases) > 0 {
		fail = true
		for _, c := range e.Cases {
			if name, ok := w.errnoConst(c); !ok || name == "EOK" {
				fail = false
			}
		}
	} else {
		for _, c := range e.NotCases {
			if name, ok := w.errnoConst(c); ok && name == "EOK" {
				fail = true
			}
		}
	}
	if !fail {
		return s
	}
	out := s.clone()
	delete(out, r)
	return out
}

// refineErrnoCompare interprets `vfs.AsErrno(err) ==/!= vfs.EFOO`
// branch conditions; reported ok when the condition is such a
// comparison (whether or not anything was killed).
func (w *resFlow) refineErrnoCompare(bin *ast.BinaryExpr, negated bool, s factSet[*types.Var]) (factSet[*types.Var], bool) {
	call, cnst := bin.X, bin.Y
	name, ok := w.errnoConst(cnst)
	if !ok {
		call, cnst = bin.Y, bin.X
		if name, ok = w.errnoConst(cnst); !ok {
			return s, false
		}
	}
	v := w.errnoArg(call)
	if v == nil {
		return s, false
	}
	r := w.pairedRes(v, bin.Pos())
	if r == nil || !s.has(r) {
		return s, true
	}
	// eq: this edge implies AsErrno(err) == name holds.
	eq := (bin.Op == token.EQL) != negated
	// Equality with a non-EOK errno, or inequality with EOK, both
	// imply err != nil: the acquisition failed.
	if (eq && name != "EOK") || (!eq && name == "EOK") {
		out := s.clone()
		delete(out, r)
		return out, true
	}
	return s, true
}

// errnoArg returns the error variable passed to a vfs.AsErrno call,
// or nil.
func (w *resFlow) errnoArg(e ast.Expr) *types.Var {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = w.pkg.Info.Uses[fun.Sel]
	case *ast.Ident:
		obj = w.pkg.Info.Uses[fun]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "AsErrno" || fn.Pkg() == nil || fn.Pkg().Path() != "tss/internal/vfs" {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := w.pkg.Info.Uses[id].(*types.Var)
	return v
}

// errnoConst reports whether e denotes a vfs.Errno constant and, if
// so, its name ("EOK", "EEXIST", ...).
func (w *resFlow) errnoConst(e ast.Expr) (string, bool) {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj = w.pkg.Info.Uses[x.Sel]
	case *ast.Ident:
		obj = w.pkg.Info.Uses[x]
	}
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Path() != "tss/internal/vfs" {
		return "", false
	}
	n, ok := types.Unalias(c.Type()).(*types.Named)
	if !ok || n.Obj().Name() != "Errno" {
		return "", false
	}
	return c.Name(), true
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}
