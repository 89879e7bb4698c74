package cloudiq

// This file re-exports the engine surface needed to define schemas, load
// data, and build query plans, so that applications (and the tpch package)
// program against the cloudiq package alone.

import (
	"context"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/column"
	"cloudiq/internal/exec"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/multiplex"
	"cloudiq/internal/objstore"
	"cloudiq/internal/ocm"
	"cloudiq/internal/snapshot"
	"cloudiq/internal/table"
	"cloudiq/internal/trace"
)

// Schema, table and data types.
type (
	// Schema describes a table's columns.
	Schema = table.Schema
	// ColumnDef describes one column.
	ColumnDef = table.ColumnDef
	// Batch is a set of rows in columnar form.
	Batch = table.Batch
	// Table is a columnar table handle.
	Table = table.Table
	// TableOptions configures table creation (segment size, partitioning).
	TableOptions = table.Options
	// LoadStats reports what a Load ingested.
	LoadStats = table.LoadStats
	// Type is a column value type.
	Type = column.Type
	// Vector is a dense column of values.
	Vector = column.Vector
	// SnapInfo describes a stored snapshot.
	SnapInfo = snapshot.SnapInfo
	// OCMStats reports Object Cache Manager behaviour (hits, misses,
	// evictions — the paper's Table 5).
	OCMStats = ocm.Stats
)

// Column value types.
const (
	Int64   = column.Int64
	Float64 = column.Float64
	String  = column.String
)

// NewBatch returns an empty batch for the schema.
var NewBatch = table.NewBatch

// Load ingests '|'-separated input files from an object-store prefix into a
// table, in parallel.
var Load = table.Load

// ParseRows parses '|'-separated lines into a batch.
var ParseRows = table.ParseRows

// DateToDays converts a calendar date to the engine's int64 representation.
var DateToDays = column.DateToDays

// DaysToDate converts back to a calendar date.
var DaysToDate = column.DaysToDate

// Object stores and devices (the simulated cloud substrate).
type (
	// ObjectStore is the object-store contract cloud dbspaces use.
	ObjectStore = objstore.Store
	// MemObjectStore is the in-memory simulated store.
	MemObjectStore = objstore.MemStore
	// ObjectStoreConfig parameterizes a MemObjectStore.
	ObjectStoreConfig = objstore.Config
	// ObjectStoreConsistency selects eventual-consistency anomalies.
	ObjectStoreConsistency = objstore.Consistency
	// BlockDevice is the block-device contract conventional dbspaces use.
	BlockDevice = blockdev.Device
	// MemBlockDevice is the in-memory simulated device.
	MemBlockDevice = blockdev.MemDevice
	// BlockDeviceConfig parameterizes a MemBlockDevice.
	BlockDeviceConfig = blockdev.Config
	// Scale maps simulated I/O time to real sleeping.
	Scale = iomodel.Scale
	// Latency models per-request service time.
	Latency = iomodel.Latency
	// Resource models shared capacity (bandwidth, IOPS, a NIC).
	Resource = iomodel.Resource
)

// Deterministic fault injection (internal/faultinject).
type (
	// FaultPlan is a seeded, deterministic fault schedule threaded
	// through the storage stack (ObjectStoreConfig.Faults,
	// BlockDeviceConfig.Faults, Config.Faults).
	FaultPlan = faultinject.Plan
	// FaultSite names one injection point.
	FaultSite = faultinject.Site
)

// NewFaultPlan returns a fault plan fully determined by seed.
var NewFaultPlan = faultinject.New

// Structured tracing (internal/trace; see DESIGN.md, "Tracing").
type (
	// Tracer collects structured spans when passed as Config.Trace.
	// Timestamps come from its injected clock (SetClock); dump with
	// WriteJSON, inspect with Snapshot/Slow.
	Tracer = trace.Tracer
	// TracerConfig parameterizes a Tracer (clock, ring capacity,
	// slow-op threshold).
	TracerConfig = trace.Config
	// TraceSpan is one recorded span, as returned by Tracer.Snapshot
	// and Tracer.Slow.
	TraceSpan = trace.SpanData
)

// NewTracer returns a span collector for Config.Trace.
var NewTracer = trace.New

// Injection sites most useful from the public API.
const (
	FaultObjPut        = faultinject.ObjPut
	FaultObjGet        = faultinject.ObjGet
	FaultObjSelect     = faultinject.ObjSelect
	FaultObjDelete     = faultinject.ObjDelete
	FaultObjList       = faultinject.ObjList
	FaultObjVisibility = faultinject.ObjVisibility
	FaultWALAppend     = faultinject.WALAppend
	FaultWALTornTail   = faultinject.WALTornTail
	FaultRPCNotify     = faultinject.RPCNotify
	FaultDeltaCompact  = faultinject.DeltaCompact
)

// NewMemObjectStore returns an in-memory simulated object store.
var NewMemObjectStore = objstore.NewMem

// NewMemBlockDevice returns an in-memory simulated block device.
var NewMemBlockDevice = blockdev.NewMem

// NewScale returns a simulated-time scale.
var NewScale = iomodel.NewScale

// NewResource returns a shared-capacity resource.
var NewResource = iomodel.NewResource

// Query building blocks.
type (
	// Expr is a vectorized expression.
	Expr = exec.Expr
	// Source streams batches.
	Source = exec.Source
	// ScanOptions tunes a table scan.
	ScanOptions = exec.ScanOptions
	// NamedExpr pairs an output name with an expression.
	NamedExpr = exec.NamedExpr
	// Agg is one aggregate column.
	Agg = exec.Agg
	// SortKey orders by one column.
	SortKey = exec.SortKey
	// JoinType selects join semantics.
	JoinType = exec.JoinType
	// PushdownMode selects whether scans may evaluate filters and partial
	// aggregates inside the object store (ScanOptions.Pushdown).
	PushdownMode = exec.PushdownMode
)

// Pushdown modes.
const (
	PushdownOff   = exec.PushdownOff
	PushdownAuto  = exec.PushdownAuto
	PushdownForce = exec.PushdownForce
)

// Join types.
const (
	Inner     = exec.Inner
	LeftOuter = exec.LeftOuter
	Semi      = exec.Semi
	Anti      = exec.Anti
)

// Aggregate functions.
const (
	Sum           = exec.Sum
	Avg           = exec.Avg
	Min           = exec.Min
	Max           = exec.Max
	Count         = exec.Count
	CountDistinct = exec.CountDistinct
)

// Expression constructors.
var (
	Col     = exec.Col
	ConstI  = exec.ConstI
	ConstF  = exec.ConstF
	ConstS  = exec.ConstS
	Add     = exec.Add
	SubE    = exec.Sub
	MulE    = exec.Mul
	DivE    = exec.Div
	Eq      = exec.Eq
	Ne      = exec.Ne
	Lt      = exec.Lt
	Le      = exec.Le
	Gt      = exec.Gt
	GeE     = exec.Ge
	AndE    = exec.And
	OrE     = exec.Or
	NotE    = exec.Not
	Like    = exec.Like
	NotLike = exec.NotLike
	InS     = exec.InS
	CaseE   = exec.Case
	Substr  = exec.Substr
	YearE   = exec.Year
)

// Operators.
var (
	// Scan streams a table's columns with zone pruning and prefetch.
	Scan = exec.Scan
	// SliceSource feeds materialized batches as a Source.
	SliceSource = exec.SliceSource
	// Collect drains a Source into one batch.
	Collect = exec.Collect
	// FilterBatch keeps rows where the predicate is non-zero.
	FilterBatch = exec.FilterBatch
	// Project evaluates expressions into a new batch.
	Project = exec.Project
	// HashJoin joins build against probe.
	HashJoin = exec.HashJoin
	// HashAgg groups and aggregates.
	HashAgg = exec.HashAgg
	// ScanAgg computes ungrouped aggregates over a scan, pushing partial
	// aggregation into the object store when ScanOptions.Pushdown allows.
	ScanAgg = exec.ScanAgg
	// SortBatch orders a batch.
	SortBatch = exec.Sort
	// Limit truncates a batch.
	Limit = exec.Limit
)

// Multiplex distribution layer (coordinator RPC endpoint + node clients).
type (
	// MultiplexServer serves the coordinator API over net/rpc.
	MultiplexServer = multiplex.Server
	// MultiplexClient is a secondary node's connection to the coordinator.
	MultiplexClient = multiplex.Client
)

// ListenCoordinator starts serving a coordinator Database over net/rpc. RPC
// handlers run under a context derived from ctx, cancelled when the server
// closes.
func ListenCoordinator(ctx context.Context, addr string, db *Database) (*MultiplexServer, error) {
	return multiplex.ListenAndServe(ctx, addr, db)
}

// DialCoordinator connects a secondary node to a coordinator endpoint.
var DialCoordinator = multiplex.Dial
