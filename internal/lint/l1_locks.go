package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ruleL1 — lock discipline.
//
// The Ledger's mu/seqMu serialize jsn assignment and structure updates
// (§II-C). PRs 1–2 made throughput depend on those locks being held for
// nanoseconds, not milliseconds: any blob/stream I/O, network call, or
// ECDSA signing reachable while a mutex is held re-serializes the whole
// engine (§III-C signing is the expensive step the staged pipeline and
// the state cache exist to amortize). L1 finds lock regions — between a
// sync.Mutex/RWMutex Lock/RLock (or lockExclusive/lockWrite) and the first
// non-deferred matching unlock — plus the bodies of functions named
// *Locked (called with the lock held, by convention), and reports every
// call that can reach a sink through the module call graph.
//
// Intentional commit sections (the apply/cut/sign sections that ARE the
// design) live in l1Allowlist; one-off exceptions use //lint:ignore L1.
type ruleL1 struct{}

func (ruleL1) Name() string { return "L1" }
func (ruleL1) Doc() string {
	return "no stream/blob I/O, network call, or ECDSA signing reachable under mu/seqMu"
}

// lockRegion is a span of one function body during which a lock is held.
type lockRegion struct {
	start, end token.Pos
	lock       string // display name ("l.mu", "held lock")
}

func (ruleL1) Check(ctx *Context, pkg *Package) {
	rel := ctx.relPath(pkg.Path)
	if !isTestdata(pkg.Path) {
		for _, skip := range l1SkipPackages {
			if rel == skip || strings.HasPrefix(rel, skip+"/") {
				return
			}
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				if _, allowed := l1Allowlist[ctx.graph.key(fn)]; allowed {
					continue
				}
			}
			checkL1Func(ctx, pkg, fd)
		}
	}
}

func checkL1Func(ctx *Context, pkg *Package, fd *ast.FuncDecl) {
	regions := lockRegions(pkg, fd)
	if strings.HasSuffix(fd.Name.Name, "Locked") || strings.HasSuffix(fd.Name.Name, "locked") {
		regions = append(regions, lockRegion{start: fd.Body.Pos(), end: fd.Body.End(), lock: "the caller's lock"})
	}
	if len(regions) == 0 {
		return
	}
	lits := funcLitRanges(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || inRanges(call.Pos(), lits) {
			return true
		}
		var held string
		for _, r := range regions {
			if call.Pos() >= r.start && call.Pos() < r.end {
				held = r.lock
				break
			}
		}
		if held == "" {
			return true
		}
		callee := calleeOf(pkg.Info, call)
		if callee == nil {
			return true
		}
		if isLockOp(pkg.Info, call) {
			return true
		}
		if cat := classifySink(ctx.Loader.ModulePath, callee); cat != "" {
			ctx.Report("L1", call.Pos(), "%s (%s) while %s is held", cat, shortFuncName(callee), held)
			return true
		}
		for _, cat := range ctx.graph.reachable(callee) {
			ctx.Report("L1", call.Pos(), "%s reachable while %s is held: %s → %s",
				cat, held, shortFuncName(callee), ctx.graph.chain(callee, cat))
		}
		return true
	})
}

// lockOpKind classifies a call as a lock acquire/release on a
// sync.Mutex/RWMutex field, or on the ledger's lockExclusive pair
// (lockWrite acquires the same lock).
// It returns the lock's display name and whether the op acquires.
func lockOpKind(info *types.Info, call *ast.CallExpr) (lock string, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		tv, has := info.Types[sel.X]
		if !has {
			return "", false, false
		}
		t := deref(tv.Type)
		if !isNamedType(t, "sync", "Mutex") && !isNamedType(t, "sync", "RWMutex") {
			return "", false, false
		}
		return types.ExprString(sel.X) + rwTag(name), name == "Lock" || name == "RLock", true
	case "lockExclusive", "lockWrite", "unlockExclusive":
		return types.ExprString(sel.X) + " (exclusive)", name != "unlockExclusive", true
	}
	return "", false, false
}

// rwTag distinguishes the read- and write-halves of an RWMutex so an
// RLock is only closed by an RUnlock.
func rwTag(op string) string {
	if op == "RLock" || op == "RUnlock" {
		return " (read)"
	}
	return ""
}

func isLockOp(info *types.Info, call *ast.CallExpr) bool {
	_, _, ok := lockOpKind(info, call)
	return ok
}

// lockRegions finds the held spans in one function: each acquire opens a
// region that the first NON-deferred matching unlock after it closes;
// with only deferred unlocks (the lock()/defer unlock() idiom) the
// region runs to the end of the function. Deferred unlocks inside early
// -return branches therefore do not end the enclosing region.
func lockRegions(pkg *Package, fd *ast.FuncDecl) []lockRegion {
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	type lockOp struct {
		pos      token.Pos
		lock     string
		acquire  bool
		deferred bool
	}
	var ops []lockOp
	lits := funcLitRanges(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || inRanges(call.Pos(), lits) {
			return true
		}
		if lock, acquire, ok := lockOpKind(pkg.Info, call); ok {
			ops = append(ops, lockOp{call.Pos(), lock, acquire, deferred[call]})
		}
		return true
	})
	var regions []lockRegion
	for i, op := range ops {
		if !op.acquire {
			continue
		}
		end := fd.Body.End()
		for _, later := range ops[i+1:] {
			if !later.acquire && !later.deferred && later.lock == op.lock {
				end = later.pos
				break
			}
		}
		regions = append(regions, lockRegion{start: op.pos, end: end, lock: op.lock})
	}
	return regions
}
