package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheck flags a mu.Lock() whose Unlock is neither deferred nor provably
// executed on every path out of the function. It runs a small path-sensitive
// simulation over the statement structure: each (mutex expression, lock
// kind) pair is tracked through blocks, branches and loops, and any return
// (or fall-off-the-end, goto, or labeled jump the analysis cannot follow)
// reached with a positive net lock depth is a finding.
//
// Functions that Unlock a mutex they never locked (the *Locked helper
// convention: called with the lock held, possibly dropping and retaking it)
// are recognised and skipped for that mutex.
func LockCheck() *Analyzer {
	return &Analyzer{
		Name: "lockcheck",
		Doc:  "every Lock must be deferred-unlocked or unlocked on all return paths",
		Run:  runLockCheck,
	}
}

func runLockCheck(pass *Pass) {
	for u, f := range pass.files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					walkLocks(pass, u.Info, fn.Body, nil)
				}
			case *ast.FuncLit:
				walkLocks(pass, u.Info, fn.Body, nil)
			}
			return true
		})
	}
}

// lockKind separates the write pair (Lock/Unlock) from the read pair
// (RLock/RUnlock) — on an RWMutex they are independent balances.
type lockKind int

const (
	writeLock lockKind = iota
	readLock
)

// mutexOp classifies one statement-level call against a mutex.
type mutexOp struct {
	key    string // rendered receiver expression, e.g. "c.mu"
	kind   lockKind
	isLock bool
}

// classifyMutexCall returns the op a call expression performs, if it is a
// sync Lock/Unlock/RLock/RUnlock on some receiver expression.
func classifyMutexCall(info *types.Info, call *ast.CallExpr) (mutexOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexOp{}, false
	}
	op := mutexOp{key: types.ExprString(sel.X)}
	switch fn.Name() {
	case "Lock":
		op.kind, op.isLock = writeLock, true
	case "Unlock":
		op.kind, op.isLock = writeLock, false
	case "RLock":
		op.kind, op.isLock = readLock, true
	case "RUnlock":
		op.kind, op.isLock = readLock, false
	default:
		return mutexOp{}, false
	}
	return op, true
}

// lockState is one simulated path condition for a single tracked mutex.
type lockState struct {
	depth    int       // net Lock calls outstanding
	deferred int       // deferred Unlocks armed on this path
	lockPos  token.Pos // position of the outermost outstanding Lock
}

type stateSet map[lockState]bool

func (s stateSet) add(st lockState) { s[st] = true }

func union(a, b stateSet) stateSet {
	out := make(stateSet, len(a)+len(b))
	for st := range a {
		out.add(st)
	}
	for st := range b {
		out.add(st)
	}
	return out
}

// lockSim simulates one function body for one mutex key.
type lockSim struct {
	pass          *Pass
	info          *types.Info
	key           string
	kind          lockKind
	mu            ast.Expr // the receiver of the first Lock, for held
	held          func(mu ast.Expr, call *ast.CallExpr)
	callerManaged bool
	flagged       map[token.Pos]bool

	// breakable/continuable jump accumulators, innermost last.
	breaks    []stateSet
	continues []stateSet
	// loopLabels maps a label name to the (break, continue) accumulator
	// indices of the labeled loop, so labeled jumps stay precise.
	loopLabels map[string][2]int
}

// walkLocks simulates one function body once per mutex it locks. Nested
// function literals are separate scopes with their own balance (lockcheck
// walks them separately), so the simulation does not descend into them
// except to recognise the `defer func() { mu.Unlock() }()` idiom.
//
// With held nil it reports every path out of the function that still holds
// a lock. Otherwise it reports nothing and hands held each call the function
// makes on its own goroutine at a point where the mutex may be held, with
// the receiver of that mutex's first Lock; an Unlock of a mutex the function
// never locked does not end that walk, so a *Locked helper that retakes the
// lock keeps its calls.
func walkLocks(pass *Pass, info *types.Info, body *ast.BlockStmt, held func(mu ast.Expr, call *ast.CallExpr)) {
	mus := make(map[mutexOp]ast.Expr) // one simulation per (key, kind)
	var order []mutexOp
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals are separate scopes with their own walk
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := classifyMutexCall(info, call); ok && op.isLock && mus[op] == nil {
				mus[op] = ast.Unparen(call.Fun).(*ast.SelectorExpr).X
				order = append(order, op)
			}
		}
		return true
	})
	for _, op := range order {
		sim := &lockSim{
			pass:       pass,
			info:       info,
			key:        op.key,
			kind:       op.kind,
			mu:         mus[op],
			held:       held,
			flagged:    make(map[token.Pos]bool),
			loopLabels: make(map[string][2]int),
		}
		entry := make(stateSet)
		entry.add(lockState{})
		exit := sim.block(body.List, entry)
		for st := range exit {
			sim.checkExit(st, body.End())
		}
	}
}

func (s *lockSim) lockName() string {
	if s.kind == readLock {
		return s.key + ".RLock"
	}
	return s.key + ".Lock"
}

// checkExit reports if a path leaves the function with the lock held.
func (s *lockSim) checkExit(st lockState, fallback token.Pos) {
	if s.held != nil || s.callerManaged || st.depth-st.deferred <= 0 {
		return
	}
	pos := st.lockPos
	if !pos.IsValid() {
		pos = fallback
	}
	if s.flagged[pos] {
		return
	}
	s.flagged[pos] = true
	s.pass.Reportf(pos,
		"%s() is not deferred and not released on every path out of the function", s.lockName())
}

// block simulates a statement list, returning the fall-through states.
func (s *lockSim) block(stmts []ast.Stmt, entry stateSet) stateSet {
	cur := entry
	for _, stmt := range stmts {
		if len(cur) == 0 || s.callerManaged {
			return cur
		}
		cur = s.stmt(stmt, cur)
	}
	return cur
}

func (s *lockSim) stmt(stmt ast.Stmt, in stateSet) stateSet {
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		return s.block(st.List, in)

	case *ast.ExprStmt:
		s.visit(st, in)
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if _, ok := spawnedCall(s.info, call); ok {
				return in // pageio.Go(f): as under go, f is a separate scope
			}
			if op, ok := classifyMutexCall(s.info, call); ok && s.matches(op) {
				return s.apply(op, call.Pos(), in)
			}
			if isPanicCall(s.info, call) {
				return make(stateSet) // diverges; defers run during unwind
			}
		}
		return in

	case *ast.DeferStmt:
		if s.isDeferredUnlock(st.Call) {
			out := make(stateSet, len(in))
			for state := range in {
				state.deferred++
				out.add(state)
			}
			return out
		}
		return in

	case *ast.ReturnStmt:
		s.visit(st, in)
		for state := range in {
			s.checkExit(state, st.Pos())
		}
		return make(stateSet)

	case *ast.IfStmt:
		if st.Init != nil {
			in = s.stmt(st.Init, in)
		}
		s.visit(st.Cond, in)
		thenOut := s.block(st.Body.List, in)
		elseOut := in
		if st.Else != nil {
			elseOut = s.stmt(st.Else, in)
		}
		return union(thenOut, elseOut)

	case *ast.ForStmt, *ast.RangeStmt:
		return s.loop(st, in, "")

	case *ast.SwitchStmt:
		if st.Init != nil {
			in = s.stmt(st.Init, in)
		}
		s.visit(st.Tag, in)
		return s.clauses(st.Body, in, hasDefaultClause(st.Body))

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			in = s.stmt(st.Init, in)
		}
		s.visit(st.Assign, in)
		return s.clauses(st.Body, in, hasDefaultClause(st.Body))

	case *ast.SelectStmt:
		return s.clauses(st.Body, in, true)

	case *ast.LabeledStmt:
		switch st.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return s.loop(st.Stmt, in, st.Label.Name)
		}
		return s.stmt(st.Stmt, in)

	case *ast.BranchStmt:
		return s.branch(st, in)

	case *ast.GoStmt:
		return in // the goroutine body is a separate scope

	default:
		s.visit(st, in) // assignments, declarations, sends, inc/dec
		return in
	}
}

// visit hands held every call in n that runs on this goroutine, if the
// mutex may be held on some path in.
func (s *lockSim) visit(n ast.Node, in stateSet) {
	if s.held == nil || n == nil {
		return
	}
	mayHold := false
	for state := range in {
		mayHold = mayHold || state.depth > 0
	}
	if !mayHold {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := spawnedCall(s.info, x); ok {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			s.held(s.mu, x)
		}
		return true
	})
}

// matches reports whether op is the mutex/kind this simulation tracks.
func (s *lockSim) matches(op mutexOp) bool {
	return op.key == s.key && op.kind == s.kind
}

func (s *lockSim) apply(op mutexOp, pos token.Pos, in stateSet) stateSet {
	out := make(stateSet, len(in))
	for state := range in {
		if op.isLock {
			if state.depth == 0 {
				state.lockPos = pos
			}
			state.depth++
		} else {
			if state.depth == 0 && state.deferred == 0 && s.held == nil {
				// Unlock of a mutex this function never locked: the
				// caller holds it (the *Locked helper convention). A
				// walk for held calls goes on to a Lock that retakes it.
				s.callerManaged = true
				return in
			}
			if state.depth > 0 {
				state.depth--
			}
			if state.depth == 0 {
				state.lockPos = token.NoPos
			}
		}
		out.add(state)
	}
	return out
}

// isDeferredUnlock recognises `defer mu.Unlock()` and the wrapped form
// `defer func() { ...; mu.Unlock(); ... }()`.
func (s *lockSim) isDeferredUnlock(call *ast.CallExpr) bool {
	if op, ok := classifyMutexCall(s.info, call); ok {
		return s.matches(op) && !op.isLock
	}
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if op, ok := classifyMutexCall(s.info, c); ok && s.matches(op) && !op.isLock {
				found = true
			}
		}
		return !found
	})
	return found
}

// loop runs a for or range statement's body to a fixpoint: fall-through and
// continue states re-enter the next iteration; break states (and, for
// conditional loops, the entry states) form the exit set.
func (s *lockSim) loop(stmt ast.Stmt, entry stateSet, label string) stateSet {
	var body *ast.BlockStmt
	var cond ast.Expr
	var post ast.Stmt
	conditional := true
	switch l := stmt.(type) {
	case *ast.ForStmt:
		if l.Init != nil {
			entry = s.stmt(l.Init, entry)
		}
		body, cond, post, conditional = l.Body, l.Cond, l.Post, l.Cond != nil
	case *ast.RangeStmt:
		s.visit(l.X, entry)
		body = l.Body
	}
	s.breaks = append(s.breaks, make(stateSet))
	s.continues = append(s.continues, make(stateSet))
	bi, ci := len(s.breaks)-1, len(s.continues)-1
	if label != "" {
		s.loopLabels[label] = [2]int{bi, ci}
		defer delete(s.loopLabels, label)
	}
	defer func() {
		s.breaks = s.breaks[:bi]
		s.continues = s.continues[:ci]
	}()

	cur := entry
	for range 8 { // depths are tiny; the fixpoint settles in 2-3 rounds
		s.visit(cond, cur)
		out := s.block(body.List, cur)
		out = union(out, s.continues[ci])
		if post != nil {
			out = s.stmt(post, out)
		}
		next := union(cur, out)
		if len(next) == len(cur) {
			break
		}
		cur = next
	}
	exit := s.breaks[bi]
	if conditional {
		exit = union(exit, cur)
	}
	return exit
}

// clauses simulates a switch/select body: the union of every clause's exit,
// plus the entry states when no default clause guarantees a branch is taken.
// break inside a clause targets the switch itself.
func (s *lockSim) clauses(body *ast.BlockStmt, in stateSet, exhaustive bool) stateSet {
	s.breaks = append(s.breaks, make(stateSet))
	bi := len(s.breaks) - 1
	defer func() { s.breaks = s.breaks[:bi] }()

	exit := make(stateSet)
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				s.visit(e, in)
			}
			exit = union(exit, s.block(c.Body, in))
		case *ast.CommClause:
			var states stateSet = in
			if c.Comm != nil {
				states = s.stmt(c.Comm, in)
			}
			exit = union(exit, s.block(c.Body, states))
		}
	}
	exit = union(exit, s.breaks[bi])
	if !exhaustive {
		exit = union(exit, in)
	}
	return exit
}

func (s *lockSim) branch(st *ast.BranchStmt, in stateSet) stateSet {
	switch st.Tok {
	case token.BREAK:
		idx := -1
		if st.Label != nil {
			if t, ok := s.loopLabels[st.Label.Name]; ok {
				idx = t[0]
			}
		} else if len(s.breaks) > 0 {
			idx = len(s.breaks) - 1
		}
		if idx >= 0 {
			s.breaks[idx] = union(s.breaks[idx], in)
			return make(stateSet)
		}
	case token.CONTINUE:
		idx := -1
		if st.Label != nil {
			if t, ok := s.loopLabels[st.Label.Name]; ok {
				idx = t[1]
			}
		} else if len(s.continues) > 0 {
			idx = len(s.continues) - 1
		}
		if idx >= 0 {
			s.continues[idx] = union(s.continues[idx], in)
			return make(stateSet)
		}
	case token.FALLTHROUGH:
		return in // imprecise but safe: treated as clause fall-through
	}
	// goto, or a labeled jump the simulation cannot resolve: require the
	// lock to be balanced here, like a return.
	for state := range in {
		s.checkExit(state, st.Pos())
	}
	return make(stateSet)
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if c, ok := clause.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
