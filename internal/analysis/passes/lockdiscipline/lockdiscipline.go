// Package lockdiscipline enforces the registry's locking rules:
//
//  1. No blocking I/O while holding a mutex: calls into net/http, net,
//     os, the store package, or time.Sleep under a held Lock/RLock
//     stall every reader of that shard. The sanctioned exception is the
//     store's commit path — Store.Put, Store.PutAsync, Store.Delete,
//     and Ticket.Wait: lifecycle events journal write-ahead under the
//     shard write lock by design, and a checkpoint pass enqueues each
//     dirty stream's delta under that stream's shard lock (PutAsync
//     does no file I/O; the group commit runs on the store's committer
//     goroutine after the lock is gone). Everything else in the store —
//     Load, Compact, Close, constructors — rewrites or scans files and
//     must never run under a shard lock.
//  2. Visit callbacks run under the shard read lock: calling back into
//     the registry self-deadlocks, acquiring any other mutex inside
//     the callback creates a lock-order edge that must be justified
//     with a //lint:ignore, and blocking calls obey the same rule-1
//     exemption list.
//  3. The same rules apply to LifecycleObserver methods, which run
//     under the shard write lock.
//  4. Mutexes must not be copied: parameters, receivers, and results
//     that carry a sync.Mutex/RWMutex by value are flagged.
//  5. No per-item lock churn in loops: a loop body whose direct
//     statements Lock and then Unlock the same mutex pays a mutex
//     handoff every iteration — under contention the handoffs dominate
//     the work. The sanctioned shape is the market broker's batch
//     settle: acquire once, settle every item, release once. The check
//     is deliberately syntactic (the pair must be direct statements of
//     the loop body), so helpers that acquire internally — e.g.
//     Persister.Checkpoint calling checkpointStream per stream, which
//     locks inside Registry.Visit — are not flagged.
//
// Unlike the other passes, this one resolves interface-method callees:
// the serving layer talks to the store through the Store interface, so
// exemptions and blocking verdicts must attach to
// "(datamarket/internal/store.Store).Put" and friends, not only to
// concrete methods.
package lockdiscipline

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"datamarket/internal/analysis"
)

// Config parameterizes the analyzer.
type Config struct {
	// Pkgs are the packages whose functions are checked.
	Pkgs []string
	// BlockingPkgs are import paths whose calls count as blocking I/O.
	BlockingPkgs []string
	// BlockingFuncs are fully-qualified extra blocking functions.
	BlockingFuncs []string
	// ExemptCallees are fully-qualified functions (types.Func full
	// names, interface methods included) that may be called while
	// holding a lock even though their package is blocking: the store's
	// enqueue-then-wait commit path.
	ExemptCallees []string
	// RegistryType names the sharded registry type (in Pkgs) whose
	// Visit callbacks and observers are lock-sensitive.
	RegistryType string
	// VisitMethod is the registry's visit-under-lock method name.
	VisitMethod string
	// ObserverMethods are lifecycle-callback method names that run
	// under the registry shard lock.
	ObserverMethods []string
	// Anchor triggers the whole-program analyzer.
	Anchor string
}

// DefaultConfig is the repo's real wiring.
func DefaultConfig() Config {
	return Config{
		Pkgs:          []string{"datamarket/internal/server", "datamarket/internal/market"},
		BlockingPkgs:  []string{"net/http", "net", "os", "datamarket/internal/store"},
		BlockingFuncs: []string{"time.Sleep"},
		ExemptCallees: []string{
			"(datamarket/internal/store.Store).Put",
			"(datamarket/internal/store.Store).PutAsync",
			"(datamarket/internal/store.Store).Delete",
			"(*datamarket/internal/store.Ticket).Wait",
		},
		RegistryType:    "Registry",
		VisitMethod:     "Visit",
		ObserverMethods: []string{"StreamCreated", "StreamRestored", "StreamDeleted"},
		Anchor:          "datamarket/internal/server",
	}
}

// NewAnalyzer builds the lockdiscipline analyzer with the given config.
func NewAnalyzer(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:   "lockdiscipline",
		Doc:    "checks registry locking rules: no blocking I/O under a shard lock, no registry re-entry or lock acquisition in Visit/observer callbacks, no mutex copies, no per-iteration lock churn in loops",
		Anchor: cfg.Anchor,
		Run:    func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

// Analyzer is the production instance.
var Analyzer = NewAnalyzer(DefaultConfig())

func run(pass *analysis.Pass, cfg Config) error {
	for _, path := range cfg.Pkgs {
		pkg := pass.Prog.Lookup(path)
		if pkg == nil {
			continue
		}
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkHeldLocks(pass, cfg, pkg, fd)
				checkVisitCallbacks(pass, cfg, pkg, fd)
				checkObserver(pass, cfg, pkg, fd)
				checkMutexCopies(pass, pkg, fd)
				checkLockChurn(pass, pkg, fd)
			}
		}
	}
	return nil
}

// --- rule 1: blocking calls under a held lock ---

func checkHeldLocks(pass *analysis.Pass, cfg Config, pkg *analysis.Package, fd *ast.FuncDecl) {
	walkLockRegions(pkg.TypesInfo, fd.Body, make(map[string]bool), func(stmt ast.Stmt, held map[string]bool) {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				// Literal bodies run at call time, not necessarily
				// under the lock; Visit callbacks have their own rule.
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pkg.TypesInfo, call)
			if fn == nil || !isBlockingCall(cfg, fn) {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to %s while holding %s: blocking I/O under a lock stalls every contender (release the lock first, or route through the store's enqueue-then-wait commit path)",
				fn.FullName(), heldNames(held))
			return true
		})
	})
}

// walkLockRegions walks stmts in order, tracking which mutexes are
// held (by receiver expression spelling), and invokes visit for every
// statement executed with at least one lock held. Branch bodies get a
// copy of the held set — releases inside a branch don't leak out,
// which over-approximates "held" on the joined path; that is the safe
// direction for this check.
func walkLockRegions(info *types.Info, body *ast.BlockStmt, held map[string]bool, visit func(ast.Stmt, map[string]bool)) {
	for _, stmt := range body.List {
		lock, unlock, name := lockOp(info, stmt)
		switch {
		case lock:
			held[name] = true
			continue
		case unlock:
			delete(held, name)
			continue
		}
		if len(held) > 0 {
			visit(stmt, held)
		}
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			walkLockRegions(info, s, copyHeld(held), visit)
		case *ast.IfStmt:
			walkLockRegions(info, s.Body, copyHeld(held), visit)
			if els, ok := s.Else.(*ast.BlockStmt); ok {
				walkLockRegions(info, els, copyHeld(held), visit)
			}
		case *ast.ForStmt:
			walkLockRegions(info, s.Body, copyHeld(held), visit)
		case *ast.RangeStmt:
			walkLockRegions(info, s.Body, copyHeld(held), visit)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockRegions(info, &ast.BlockStmt{List: cc.Body}, copyHeld(held), visit)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockRegions(info, &ast.BlockStmt{List: cc.Body}, copyHeld(held), visit)
				}
			}
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	cp := make(map[string]bool, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

// lockOp classifies a statement as a lock acquire/release on a
// sync.Mutex/RWMutex. Deferred unlocks keep the lock held for the rest
// of the function, so they are deliberately NOT treated as releases.
func lockOp(info *types.Info, stmt ast.Stmt) (lock, unlock bool, name string) {
	var call *ast.CallExpr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		// defer mu.Unlock(): still held for every following statement.
		return false, false, ""
	}
	if call == nil {
		return false, false, ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !isMutexType(typeOf(info, sel.X)) {
		return false, false, ""
	}
	name = exprPath(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return true, false, name
	case "Unlock", "RUnlock":
		return false, true, name
	}
	return false, false, ""
}

// --- rule 2: Visit callbacks ---

func checkVisitCallbacks(pass *analysis.Pass, cfg Config, pkg *analysis.Package, fd *ast.FuncDecl) {
	info := pkg.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != cfg.VisitMethod {
			return true
		}
		if !isRegistryType(typeOf(info, sel.X), cfg, pkg.PkgPath) {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			checkUnderShardLock(pass, cfg, pkg, lit.Body,
				fmt.Sprintf("inside a %s.%s callback (runs under the shard lock)", cfg.RegistryType, cfg.VisitMethod))
		}
		return true
	})
}

// --- rule 3: observer methods ---

func checkObserver(pass *analysis.Pass, cfg Config, pkg *analysis.Package, fd *ast.FuncDecl) {
	if fd.Recv == nil {
		return
	}
	observer := false
	for _, m := range cfg.ObserverMethods {
		if fd.Name.Name == m {
			observer = true
		}
	}
	if !observer {
		return
	}
	checkUnderShardLock(pass, cfg, pkg, fd.Body,
		fmt.Sprintf("inside lifecycle observer %s (runs under the registry shard write lock)", fd.Name.Name))
}

// checkUnderShardLock flags registry re-entry, mutex acquisition, and
// blocking calls in a body known to execute under a registry shard
// lock. Blocking calls obey the same exemption list as rule 1: the
// store's enqueue-then-wait commit path (PutAsync queues the record and
// returns without file I/O) is the sanctioned way to journal from a
// Visit callback or lifecycle observer.
func checkUnderShardLock(pass *analysis.Pass, cfg Config, pkg *analysis.Package, body *ast.BlockStmt, where string) {
	info := pkg.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeOf(info, call); fn != nil && isBlockingCall(cfg, fn) {
			pass.Reportf(call.Pos(),
				"call to %s %s blocks under the shard lock; only the store's enqueue-then-wait commit path (Put, PutAsync, Delete, Ticket.Wait) is sanctioned here",
				fn.FullName(), where)
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := typeOf(info, sel.X)
		if isRegistryType(recv, cfg, pkg.PkgPath) {
			pass.Reportf(call.Pos(),
				"call to %s.%s %s would re-enter the registry lock and deadlock",
				cfg.RegistryType, sel.Sel.Name, where)
			return true
		}
		if isMutexType(recv) && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
			pass.Reportf(call.Pos(),
				"acquiring %s.%s %s adds a lock-order edge; document the order and //lint:ignore if intended",
				exprPath(sel.X), sel.Sel.Name, where)
		}
		return true
	})
}

// --- rule 4: mutex copies ---

func checkMutexCopies(pass *analysis.Pass, pkg *analysis.Package, fd *ast.FuncDecl) {
	info := pkg.TypesInfo
	check := func(fields *ast.FieldList, kind string) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			tv, ok := info.Types[field.Type]
			if !ok {
				continue
			}
			if containsMutex(tv.Type, make(map[types.Type]bool)) {
				pass.Reportf(field.Type.Pos(),
					"%s of %s passes a mutex by value; copies of a locked mutex deadlock — use a pointer", kind, fd.Name.Name)
			}
		}
	}
	check(fd.Recv, "receiver")
	check(fd.Type.Params, "parameter")
	check(fd.Type.Results, "result")
}

// --- rule 5: per-iteration lock churn in loops ---

// checkLockChurn flags loop bodies whose direct statements Lock and
// later Unlock the same mutex: every iteration pays an acquire/release
// handoff, which under contention dominates short critical sections.
// The fix is the batch-settle shape — hoist the Lock above the loop
// (the one-lock-spanning-many-settles form rule 1 walks without
// complaint, as long as nothing inside blocks). Only direct statements
// count: a helper that locks internally (Persister.Checkpoint calling
// checkpointStream, which locks inside Registry.Visit) makes its own
// locking decision and is not this loop's churn.
func checkLockChurn(pass *analysis.Pass, pkg *analysis.Package, fd *ast.FuncDecl) {
	info := pkg.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch s := n.(type) {
		case *ast.ForStmt:
			body = s.Body
		case *ast.RangeStmt:
			body = s.Body
		default:
			return true
		}
		// Identifiers bound per iteration: a mutex reached through one of
		// these (or through an index expression) is a different mutex each
		// time around — the sharded-registry idiom — not churn on one lock.
		loopLocal := make(map[string]bool)
		switch s := n.(type) {
		case *ast.ForStmt:
			collectDefines(s.Init, loopLocal)
		case *ast.RangeStmt:
			if id, ok := s.Key.(*ast.Ident); ok {
				loopLocal[id.Name] = true
			}
			if id, ok := s.Value.(*ast.Ident); ok {
				loopLocal[id.Name] = true
			}
		}
		locked := make(map[string]token.Pos) // mutex → its Lock stmt in this body
		reported := make(map[string]bool)
		for _, stmt := range body.List {
			collectDefines(stmt, loopLocal)
			lock, unlock, name := lockOp(info, stmt)
			if root, _, _ := strings.Cut(name, "."); loopLocal[root] || strings.Contains(name, "[...]") {
				continue
			}
			switch {
			case lock:
				if _, ok := locked[name]; !ok {
					locked[name] = stmt.Pos()
				}
			case unlock:
				pos, ok := locked[name]
				if ok && !reported[name] {
					reported[name] = true
					pass.Reportf(pos,
						"per-iteration Lock/Unlock of %s inside a loop pays a mutex handoff every item; hoist the acquisition to span the loop (the batch-settle shape) or batch the work",
						name)
				}
				delete(locked, name)
			}
		}
		return true
	})
}

// collectDefines records identifiers bound by a `:=` statement.
func collectDefines(stmt ast.Stmt, into map[string]bool) {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || as.Tok != token.DEFINE {
		return
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			into[id.Name] = true
		}
	}
}

// --- shared helpers ---

// calleeOf resolves a call's static callee like analysis.CalleeOf, but
// keeps interface methods instead of dropping them: this pass judges
// calls by where the callee is declared (is it the store's commit
// path?), and for an interface call the declaring interface is exactly
// the right identity — the serving layer journals through store.Store,
// so "(datamarket/internal/store.Store).Put" is the name the exemption
// list and the blocking verdict must see.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isBlockingCall reports whether fn counts as blocking under cfg:
// declared in a blocking package or named in BlockingFuncs, and not on
// the exemption list.
func isBlockingCall(cfg Config, fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	full := fn.FullName()
	for _, exempt := range cfg.ExemptCallees {
		if full == exempt {
			return false
		}
	}
	path := fn.Pkg().Path()
	for _, p := range cfg.BlockingPkgs {
		if path == p {
			return true
		}
	}
	for _, f := range cfg.BlockingFuncs {
		if full == f {
			return true
		}
	}
	return false
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

func isMutexType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// containsMutex reports whether t carries a sync.Mutex/RWMutex by
// value (directly, or through struct fields / arrays). Pointers,
// slices, maps, and channels stop the walk — they share, not copy.
func containsMutex(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if isMutexType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMutex(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutex(u.Elem(), seen)
	}
	return false
}

func isRegistryType(t types.Type, cfg Config, pkgPath string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == cfg.RegistryType &&
		obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

func exprPath(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprPath(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return exprPath(x.X)
	case *ast.IndexExpr:
		return exprPath(x.X) + "[...]"
	}
	return "?"
}

func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
