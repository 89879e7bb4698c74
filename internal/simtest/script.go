// Package simtest is a FoundationDB-style deterministic whole-system
// simulation harness for the engine. It drives a full multiplex — a
// coordinator (which is also a writer) plus N secondary writers and ephemeral
// reader nodes — through a seeded randomized workload of transactions,
// crashes, garbage collection and snapshots, against a simple in-memory model
// of the expected database contents. All nondeterminism (workload choice,
// fault draws, eventual-consistency windows, crash points) derives from one
// seed, so a failing run reproduces bit for bit, and a failing script shrinks
// to a minimal reproducer (see Shrink).
//
// The harness checks seven oracle families at every quiescent point:
//
//  1. committed-data equivalence: every node's tables, scanned through the
//     exec pipeline, match the model exactly;
//  2. snapshot point-in-time equivalence: restoring a snapshot yields the
//     model's state as of the snapshot, and the snapshot list matches;
//  3. never-write-twice: no object key is ever Put twice;
//  4. GC reachability: no reachable page is missing from the store, and —
//     once every restart announcement has landed — no unreachable key leaks;
//  5. monotonic visibility: per-node commit sequences never regress across
//     crashes, and a pinned read transaction's view never changes while
//     writers churn underneath it;
//  6. query lifecycle (query-mode scripts): every query the scheduler admits
//     terminates exactly once — completed, failed or cancelled — through
//     submissions, cancellations, reader crashes and full drains, and the
//     scheduler's conservation ledger always balances;
//  7. convergence (cluster-mode scripts): from any reachable fleet state —
//     coordinators killed mid-promotion, controllers crashed, probes
//     partitioned — a quiescent period drives the reconcile-loop controller
//     to the spec's fixed point with exactly one active, unfenced
//     coordinator, every deposed coordinator's mutating RPCs rejected,
//     writers at the spec generation and readers within bounds.
package simtest

import (
	"fmt"
	"strconv"
	"strings"

	"cloudiq/internal/mt"
)

// Op identifies one workload step.
type Op string

// Workload step kinds. Steps whose preconditions do not hold (commit with no
// open transaction, drop of an absent table, restore with none taken, ...)
// are no-ops, which keeps arbitrary subsets of a script runnable — the
// property shrinking depends on.
const (
	OpBegin       Op = "begin"        // open a transaction on Node
	OpAppend      Op = "append"       // append Rows rows to Table on Node (implicit begin; creates the table on first use)
	OpCommit      Op = "commit"       // commit Node's open transaction
	OpAbort       Op = "abort"        // roll back Node's open transaction
	OpDrop        Op = "drop"         // stage a drop of Table in Node's open transaction
	OpCrash       Op = "crash"        // crash Node between transactions and restart it
	OpCrashCommit Op = "crash-commit" // crash Node in the middle of a commit's page flush (after Arg uploads), then restart it
	OpCheckpoint  Op = "checkpoint"   // checkpoint Node (bounds recovery replay)
	OpGC          Op = "gc"           // collect garbage on Node
	OpCheck       Op = "check"        // light oracles: per-node equivalence scan + visibility
	OpQuiesce     Op = "quiesce"      // crash + recover every node, run restart GC, then all oracles
	OpSnapshot    Op = "snapshot"     // take a snapshot (snapshot-mode scripts only)
	OpRestore     Op = "restore"      // restore snapshot Arg (mod count), then verify point-in-time equivalence
	OpExpire      Op = "expire"       // advance the logical clock by Arg and run snapshot expiry
	OpPin         Op = "pin"          // open a long-lived read transaction on Node and remember its view
	OpCheckPin    Op = "check-pin"    // re-scan Node's pinned transaction; its view must not have changed
	OpUnpin       Op = "unpin"        // close Node's pinned transaction
	OpReader      Op = "reader"       // spin up an ephemeral reader node from the coordinator's log (Arg=1: with an OCM cache) and verify its view

	// Query-mode steps (Queries on): drive the internal/sched scheduler core
	// deterministically — submissions, dispatches, completions, cancellations
	// and reader crashes — against the coordinator's tables.
	OpQSubmit      Op = "q-submit"       // submit a query: Rows=tenant pick, Arg=lane, Table=table to scan
	OpQDispatch    Op = "q-dispatch"     // dispatch one queued query to a reader (it keeps running until q-finish)
	OpQFinish      Op = "q-finish"       // finish a running query (Arg picks): scan its table, compare to the model, complete
	OpQCancel      Op = "q-cancel"       // cancel a queued query (Arg picks)
	OpQCrashReader Op = "q-crash-reader" // crash a scheduler reader (Arg picks): its running queries fail, then it rejoins

	// Delta-mode steps (Delta on): drive the real-time ingest lane — trickle
	// inserts through the WAL-fed delta store, freeze/compact cycles, and
	// crash-mid-compaction schedules — audited by the post-compaction
	// equivalence oracle at every quiescent point.
	OpDInsert       Op = "d-insert"        // trickle-insert Rows rows into Table on Node (implicit begin; creates the table on first use)
	OpDFreeze       Op = "d-freeze"        // freeze Node's delta runs at a compaction watermark
	OpDCompact      Op = "d-compact"       // run one compactor pass on Node (ambient faults may doom it; rows must stay live)
	OpDCrashCompact Op = "d-crash-compact" // doom the compactor's drain commit mid-flush (after Arg uploads), then crash-restart Node

	// Cluster-mode steps (Cluster on): drive the reconcile-loop controller
	// against the multiplex — coordinator kills, controller crashes, probe
	// partitions and spec edits — audited by the convergence oracle.
	OpCKillCoord  Op = "c-kill-coord"  // kill the coordinator process (handle abandoned; fence record and WAL survive)
	OpCKillWriter Op = "c-kill-writer" // kill writer Node's process
	OpCReconcile  Op = "c-reconcile"   // run one controller reconcile round (at most one primitive action)
	OpCCrashCtrl  Op = "c-crash-ctrl"  // crash the controller; a fresh one restarts from the spec and probes
	OpCPartition  Op = "c-partition"   // partition Node's health probes for the next Arg probe attempts
	OpCSpec       Op = "c-spec"        // edit the spec (Arg picks: bump Generation / flip reader bounds)
)

// Step is one scripted workload step.
type Step struct {
	Op    Op
	Node  string // "" for steps that do not target a node
	Table int    // table index on Node; -1 when unused
	Rows  int    // rows to append
	Arg   int    // op-specific: flush count, clock delta, snapshot pick, reader cache flag
}

// Script is a fully deterministic simulation input: topology, fault toggles
// and the step list. Same script ⇒ same run, bit for bit.
type Script struct {
	Seed    uint64
	Writers int   // secondary writers; 0 selects single-node snapshot mode
	Tables  int   // tables per node
	SegRows int   // table segment size
	Retent  int64 // snapshot retention, in logical clock units

	// MissReads is the store's eventual-consistency window (fresh keys 404
	// this many times).
	MissReads int

	// Snapshots enables the snapshot manager on the coordinator. Generated
	// scripts set it exactly when Writers == 0 (restore semantics are
	// single-node).
	Snapshots bool

	// Queries arms the concurrent-query harness: a scheduler core with three
	// tenants (gold/silver/bronze, weights 4/2/1) over two modeled readers,
	// driven by the q-* steps and audited by the query-lifecycle oracle.
	Queries bool

	// Cluster arms the reconcile-loop controller harness (implies Queries):
	// the c-* steps kill coordinators and controllers, partition probes and
	// edit the spec; every quiescent point runs the convergence oracle.
	Cluster bool

	// Delta arms the real-time ingest lane: the d-* steps trickle rows
	// through the WAL-fed delta store, freeze and compact them, and crash
	// nodes mid-compaction; every quiescent point drains the delta fully and
	// runs the post-compaction equivalence oracle (compacted segments plus
	// residual delta must equal the model, byte for byte). Generated delta
	// scripts always have at least one secondary writer and never snapshot
	// mode.
	Delta bool

	// Pushdown arms the store-side pushdown differential oracle: equivalence
	// scans randomly (from a dedicated seeded stream) re-run with pushdown
	// forced — unfiltered and under a drawn predicate — and the pushed result
	// must be identical to the plain read. Combined with the select fault
	// family this also exercises mid-query fallback to plain reads.
	Pushdown bool

	// Ambient fault toggles. Shrinking turns them off one family at a time.
	FaultPut        bool // transient object PUT failures
	FaultDelete     bool // transient object DELETE failures
	FaultVisibility bool // visibility lag spikes on top of MissReads
	FaultRPC        bool // allocation / notification / restart RPC faults
	FaultSched      bool // scheduler admission drops and reader-stall lags
	FaultCluster    bool // probe drops, reconcile-loop crashes, mid-promotion kills
	FaultSelect     bool // transient object-store SELECT (pushdown) failures
	FaultDelta      bool // transient delta-compaction cycle failures

	Steps []Step
}

// NodeNames returns the script's node names: the coordinator first, then the
// secondary writers in order.
func (sc *Script) NodeNames() []string {
	names := []string{"coord"}
	for i := 1; i <= sc.Writers; i++ {
		names = append(names, fmt.Sprintf("w%d", i))
	}
	return names
}

// TableName returns the name of table idx on node. Names embed the owning
// node: the multiplex partitions write responsibility, so each node's catalog
// holds only its own tables.
func (sc *Script) TableName(node string, idx int) string {
	return fmt.Sprintf("t%d_%s", idx, node)
}

// Clone returns a deep copy.
func (sc *Script) Clone() *Script {
	out := *sc
	out.Steps = append([]Step(nil), sc.Steps...)
	return &out
}

// Generate derives a complete script from one seed: topology, fault toggles
// and the weighted step mix all come from a private MT19937-64 stream, so the
// same seed always yields the same script.
func Generate(seed uint64) *Script { return generate(seed, false, false, false) }

// GenerateQueries derives a query-mode script: the base workload mix plus
// the q-* scheduler steps, with the sched fault family armed. It is a
// separate generator so Generate's seed→script mapping (and every pinned
// regression seed) stays byte-stable.
func GenerateQueries(seed uint64) *Script { return generate(seed, true, false, false) }

// GenerateCluster derives a cluster-mode script: the full query-mode mix
// plus the c-* controller steps, with every fault family armed — including
// probe partitions, reconcile-loop crashes and mid-promotion kills. A third
// distinct generator mode, so the other two seed→script mappings stay
// byte-stable.
func GenerateCluster(seed uint64) *Script { return generate(seed, true, true, false) }

// GenerateDelta derives a delta-mode script: the base workload mix plus the
// d-* ingest-lane steps, with the delta-compaction fault family armed. A
// fourth distinct generator mode; every delta-only draw is gated behind the
// mode flag, so the other three seed→script mappings stay byte-stable.
func GenerateDelta(seed uint64) *Script { return generate(seed, false, false, true) }

func generate(seed uint64, queries, cluster, delta bool) *Script {
	rng := mt.New(seed)
	draw := func(n int) int {
		if n <= 1 {
			return 0
		}
		return int(rng.Uint64() % uint64(n))
	}
	sc := &Script{Seed: seed}
	sc.Writers = draw(3)
	sc.Tables = 1 + draw(2)
	sc.SegRows = 8
	sc.MissReads = draw(3)
	sc.Retent = int64(40 + draw(40))
	if cluster && sc.Writers == 0 {
		// The controller reconciles a multiplex; cluster mode always has at
		// least one secondary writer (and never snapshot mode).
		sc.Writers = 1
	}
	if delta && sc.Writers == 0 {
		// Delta mode crashes nodes mid-compaction and replays trickle rows
		// from the WAL; snapshot/restore semantics are a separate mode, so it
		// always runs the multi-writer topology.
		sc.Writers = 1
	}
	if sc.Writers == 0 {
		// Snapshot mode: the snapshot manager persists its metadata with
		// an unretried write path, so ambient store-write faults stay off
		// and the mode exercises snapshot/restore/expire logic instead.
		sc.Snapshots = true
		sc.FaultVisibility = true
	} else {
		sc.FaultPut = true
		sc.FaultDelete = true
		sc.FaultVisibility = true
		sc.FaultRPC = true
	}

	type weighted struct {
		op Op
		w  int
	}
	ops := []weighted{
		{OpAppend, 28}, {OpCommit, 16}, {OpBegin, 4}, {OpAbort, 5},
		{OpDrop, 3}, {OpCrash, 4}, {OpCrashCommit, 4}, {OpCheckpoint, 3},
		{OpGC, 4}, {OpCheck, 7}, {OpPin, 2}, {OpCheckPin, 3}, {OpUnpin, 2},
		{OpReader, 3},
	}
	if sc.Snapshots {
		ops = append(ops, weighted{OpSnapshot, 6}, weighted{OpRestore, 3}, weighted{OpExpire, 4})
	}
	if queries {
		sc.Queries = true
		sc.FaultSched = true
		// Arm the pushdown differential oracle without consuming generator
		// draws, so the seed→step mapping of every pinned script is unchanged.
		sc.Pushdown = true
		sc.FaultSelect = true
		ops = append(ops,
			weighted{OpQSubmit, 16}, weighted{OpQDispatch, 8}, weighted{OpQFinish, 10},
			weighted{OpQCancel, 3}, weighted{OpQCrashReader, 2})
	}
	if delta {
		sc.Delta = true
		sc.FaultDelta = true
		ops = append(ops,
			weighted{OpDInsert, 20}, weighted{OpDFreeze, 4},
			weighted{OpDCompact, 8}, weighted{OpDCrashCompact, 3})
	}
	if cluster {
		sc.Cluster = true
		sc.FaultCluster = true
		ops = append(ops,
			weighted{OpCReconcile, 12}, weighted{OpCKillWriter, 3},
			weighted{OpCKillCoord, 2}, weighted{OpCPartition, 3},
			weighted{OpCSpec, 3}, weighted{OpCCrashCtrl, 2})
	}
	total := 0
	for _, o := range ops {
		total += o.w
	}

	nodes := sc.NodeNames()
	n := 60 + draw(60)
	for i := 0; i < n; i++ {
		if i > 0 && i%24 == 0 {
			sc.Steps = append(sc.Steps, Step{Op: OpQuiesce, Table: -1})
			continue
		}
		r := draw(total)
		var op Op
		for _, o := range ops {
			if r < o.w {
				op = o.op
				break
			}
			r -= o.w
		}
		st := Step{Op: op, Table: -1}
		switch op {
		case OpBegin, OpCommit, OpAbort, OpCrash, OpCheckpoint, OpGC, OpPin, OpCheckPin, OpUnpin:
			st.Node = nodes[draw(len(nodes))]
		case OpAppend:
			st.Node = nodes[draw(len(nodes))]
			st.Table = draw(sc.Tables)
			st.Rows = 1 + draw(24)
		case OpDrop:
			st.Node = nodes[draw(len(nodes))]
			st.Table = draw(sc.Tables)
		case OpCrashCommit:
			st.Node = nodes[draw(len(nodes))]
			st.Arg = 1 + draw(16)
		case OpRestore:
			st.Arg = draw(8)
		case OpExpire:
			st.Arg = 10 + draw(50)
		case OpReader:
			st.Arg = draw(2)
		case OpQSubmit:
			st.Table = draw(sc.Tables)
			st.Rows = draw(3)
			st.Arg = draw(3)
		case OpQFinish, OpQCancel:
			st.Arg = draw(8)
		case OpQCrashReader:
			st.Arg = draw(2)
		case OpDInsert:
			st.Node = nodes[draw(len(nodes))]
			st.Table = draw(sc.Tables)
			st.Rows = 1 + draw(6)
		case OpDFreeze, OpDCompact:
			st.Node = nodes[draw(len(nodes))]
		case OpDCrashCompact:
			st.Node = nodes[draw(len(nodes))]
			st.Arg = 1 + draw(8)
		case OpCKillWriter:
			st.Node = nodes[1+draw(len(nodes)-1)]
		case OpCPartition:
			st.Node = nodes[draw(len(nodes))]
			st.Arg = 1 + draw(5)
		case OpCSpec:
			st.Arg = draw(6)
		}
		sc.Steps = append(sc.Steps, st)
	}
	sc.Steps = append(sc.Steps, Step{Op: OpQuiesce, Table: -1})
	return sc
}

// CrashCycles builds the crash/recover suite as an ordinary script: a fixed
// schedule, not a random mix. Every cycle opens with a quiescent point
// (recover the whole multiplex in Table 1's order — replay, re-notification,
// restart GC, GC — then every oracle) and checkpoints all nodes every fourth
// cycle, so later recoveries go through checkpoint restore instead of full
// replay. Then every node opens a transaction and appends, and one process
// dies while all the others' transactions are still open: a secondary writer
// (rotating) in the middle of its commit's page flush, after a number of
// uploads drawn from the seed; the same writer with its transaction only in
// RAM; or the coordinator. The dead process restarts at once, so the restart
// GC that reclaims its orphaned key ranges runs beside keys the survivors
// have consumed but not yet committed — the hazard the suite exists for —
// and then the survivors commit. The suite runs as CrashCycles(seed, 1, 51)
// (coordinator + one writer) and CrashCycles(seed, 2, 21).
func CrashCycles(seed uint64, writers, cycles int) *Script {
	rng := mt.New(seed)
	sc := &Script{
		Seed: seed, Writers: writers, Tables: 1, SegRows: 8, Retent: 60, MissReads: 2,
		FaultPut: true, FaultDelete: true, FaultVisibility: true, FaultRPC: true,
	}
	nodes := sc.NodeNames()
	add := func(op Op, node string, arg int) {
		sc.Steps = append(sc.Steps, Step{Op: op, Node: node, Table: -1, Arg: arg})
	}
	for c := 0; c < cycles; c++ {
		add(OpQuiesce, "", 0)
		if c%4 == 3 {
			// Writers first: a writer checkpoint is safe only once its earlier
			// commits were re-notified, which the quiesce just did.
			for i := len(nodes) - 1; i >= 0; i-- {
				add(OpCheckpoint, nodes[i], 0)
			}
		}
		for _, n := range nodes {
			add(OpBegin, n, 0)
			sc.Steps = append(sc.Steps, Step{Op: OpAppend, Node: n, Table: 0, Rows: 3 * sc.SegRows})
		}
		victim := nodes[1+c%writers]
		switch c % 3 {
		case 0:
			add(OpCrashCommit, victim, 1+int(rng.Uint64()%8))
		case 1:
			add(OpCrash, victim, 0)
		case 2:
			add(OpCrash, "coord", 0)
		}
		for _, n := range nodes {
			add(OpCommit, n, 0)
		}
	}
	add(OpQuiesce, "", 0)
	return sc
}

// String serializes the script in the text format Parse reads — the
// reproducer `iqsim -script` takes.
func (sc *Script) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# iqsim script (seed %d)\n", sc.Seed)
	fmt.Fprintf(&b, "seed %d\n", sc.Seed)
	fmt.Fprintf(&b, "writers %d\n", sc.Writers)
	fmt.Fprintf(&b, "tables %d\n", sc.Tables)
	fmt.Fprintf(&b, "segrows %d\n", sc.SegRows)
	fmt.Fprintf(&b, "missreads %d\n", sc.MissReads)
	fmt.Fprintf(&b, "retention %d\n", sc.Retent)
	fmt.Fprintf(&b, "snapshots %s\n", onOff(sc.Snapshots))
	fmt.Fprintf(&b, "queries %s\n", onOff(sc.Queries))
	fmt.Fprintf(&b, "cluster %s\n", onOff(sc.Cluster))
	fmt.Fprintf(&b, "pushdown %s\n", onOff(sc.Pushdown))
	fmt.Fprintf(&b, "delta %s\n", onOff(sc.Delta))
	fmt.Fprintf(&b, "faults put=%s delete=%s visibility=%s rpc=%s sched=%s cluster=%s select=%s delta=%s\n",
		onOff(sc.FaultPut), onOff(sc.FaultDelete), onOff(sc.FaultVisibility), onOff(sc.FaultRPC), onOff(sc.FaultSched), onOff(sc.FaultCluster), onOff(sc.FaultSelect), onOff(sc.FaultDelta))
	for _, st := range sc.Steps {
		node := st.Node
		if node == "" {
			node = "-"
		}
		fmt.Fprintf(&b, "step %s %s %d %d %d\n", st.Op, node, st.Table, st.Rows, st.Arg)
	}
	return b.String()
}

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

var validOps = map[Op]bool{
	OpBegin: true, OpAppend: true, OpCommit: true, OpAbort: true, OpDrop: true,
	OpCrash: true, OpCrashCommit: true, OpCheckpoint: true, OpGC: true,
	OpCheck: true, OpQuiesce: true, OpSnapshot: true, OpRestore: true,
	OpExpire: true, OpPin: true, OpCheckPin: true, OpUnpin: true, OpReader: true,
	OpQSubmit: true, OpQDispatch: true, OpQFinish: true, OpQCancel: true,
	OpQCrashReader: true,
	OpDInsert:      true, OpDFreeze: true, OpDCompact: true, OpDCrashCompact: true,
	OpCKillCoord: true, OpCKillWriter: true, OpCReconcile: true,
	OpCCrashCtrl: true, OpCPartition: true, OpCSpec: true,
}

// Parse reads the format String writes. Unknown directives and malformed
// lines are errors; comments (#) and blank lines are skipped.
func Parse(text string) (*Script, error) {
	sc := &Script{Tables: 1, SegRows: 8, Retent: 60}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		bad := func(why string) error {
			return fmt.Errorf("simtest: script line %d (%q): %s", ln+1, line, why)
		}
		atoi := func(s string) (int, error) { return strconv.Atoi(s) }
		switch f[0] {
		case "seed":
			if len(f) != 2 {
				return nil, bad("want: seed N")
			}
			v, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, bad(err.Error())
			}
			sc.Seed = v
		case "writers", "tables", "segrows", "missreads", "retention":
			if len(f) != 2 {
				return nil, bad("want: " + f[0] + " N")
			}
			v, err := atoi(f[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			switch f[0] {
			case "writers":
				sc.Writers = v
			case "tables":
				sc.Tables = v
			case "segrows":
				sc.SegRows = v
			case "missreads":
				sc.MissReads = v
			case "retention":
				sc.Retent = int64(v)
			}
		case "snapshots":
			if len(f) != 2 {
				return nil, bad("want: snapshots on|off")
			}
			sc.Snapshots = f[1] == "on"
		case "queries":
			if len(f) != 2 {
				return nil, bad("want: queries on|off")
			}
			sc.Queries = f[1] == "on"
		case "cluster":
			if len(f) != 2 {
				return nil, bad("want: cluster on|off")
			}
			sc.Cluster = f[1] == "on"
		case "pushdown":
			if len(f) != 2 {
				return nil, bad("want: pushdown on|off")
			}
			sc.Pushdown = f[1] == "on"
		case "delta":
			if len(f) != 2 {
				return nil, bad("want: delta on|off")
			}
			sc.Delta = f[1] == "on"
		case "faults":
			for _, kv := range f[1:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, bad("want: faults k=on|off ...")
				}
				on := v == "on"
				switch k {
				case "put":
					sc.FaultPut = on
				case "delete":
					sc.FaultDelete = on
				case "visibility":
					sc.FaultVisibility = on
				case "rpc":
					sc.FaultRPC = on
				case "sched":
					sc.FaultSched = on
				case "cluster":
					sc.FaultCluster = on
				case "select":
					sc.FaultSelect = on
				case "delta":
					sc.FaultDelta = on
				default:
					return nil, bad("unknown fault family " + k)
				}
			}
		case "step":
			if len(f) != 6 {
				return nil, bad("want: step op node table rows arg")
			}
			op := Op(f[1])
			if !validOps[op] {
				return nil, bad("unknown op " + f[1])
			}
			st := Step{Op: op, Node: f[2]}
			if st.Node == "-" {
				st.Node = ""
			}
			var err error
			if st.Table, err = atoi(f[3]); err != nil {
				return nil, bad(err.Error())
			}
			if st.Rows, err = atoi(f[4]); err != nil {
				return nil, bad(err.Error())
			}
			if st.Arg, err = atoi(f[5]); err != nil {
				return nil, bad(err.Error())
			}
			sc.Steps = append(sc.Steps, st)
		default:
			return nil, bad("unknown directive " + f[0])
		}
	}
	if len(sc.Steps) == 0 {
		return nil, fmt.Errorf("simtest: script has no steps")
	}
	return sc, nil
}
