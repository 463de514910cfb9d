// Package ptest is the public API of the pTest reproduction: an adaptive
// stress-testing tool for concurrent software on (simulated) embedded
// multicore processors, after Chang, Hsieh and Lee, "pTest: An Adaptive
// Testing Tool for Concurrent Software on Embedded Multicore
// Processors", DATE 2009.
//
// The flow mirrors the paper's Algorithm 1. A service regular expression
// and a probability distribution define a probabilistic finite-state
// automaton (PFA); the pattern generator samples n test patterns of size
// s from it; the pattern merger interleaves them under a selectable op;
// the committer issues the merged pattern as remote commands to the
// simulated pCore slave kernel while the bug detector watches for
// crashes, deadlocks, hangs, livelock and starvation:
//
//	out, err := ptest.Run(ptest.Config{
//	    RE:      ptest.PCoreRE,
//	    PD:      ptest.PCoreDistribution(),
//	    N:       16,
//	    S:       24,
//	    Op:      ptest.OpRoundRobin,
//	    Seed:    1,
//	    Factory: ptest.QuicksortFactory(42),
//	})
//	if out.Bug != nil {
//	    fmt.Println(out.Bug)       // classified failure
//	    fmt.Print(out.Bug.Journal) // Definition 2 records, rendered here
//	}
//
// Report.Journal is a frozen view of the record journal as it stood when
// the bug was detected; it is rendered to text only when printed (or
// when its String method is called), so failures nobody prints cost no
// dump.
//
// Every run is deterministic in (Config, Seed); a bug report plus its
// seed reproduces the failure exactly.
//
// Campaigns shard across CPUs: set CampaignConfig.Parallelism (or the
// equivalent field on the baseline configs) to run trials on a worker
// pool. Trials are independent in (Config, Seed), so a parallel
// campaign produces trial-for-trial identical outcomes to the
// sequential one — including the stopping point when the first bug
// cancels the rest. Workloads whose factory closes over shared state
// (philosopher forks, producer/consumer buffers) must supply
// Config.NewFactory so each trial's platform gets a fresh instance.
package ptest

import (
	"context"
	"io"

	"repro/internal/app"
	"repro/internal/chess"
	"repro/internal/committee"
	"repro/internal/contest"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dispatch"
	"repro/internal/eventlog"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/suite"
	"repro/internal/tenant"
	"repro/internal/tool"
	"repro/internal/workload"
)

// Config configures one adaptive test run; see core.Config for the full
// field documentation. The zero value of every optional field takes a
// sensible default.
type Config = core.Config

// Outcome is the result of one run: detected bug (if any), coverage,
// patterns, journal and costs.
type Outcome = core.Outcome

// CampaignConfig repeats runs across seeds; Parallelism shards the
// trials across a worker pool with bit-identical results.
type CampaignConfig = core.CampaignConfig

// CampaignResult aggregates a campaign.
type CampaignResult = core.CampaignResult

// Run executes Algorithm 1 once: generate, merge, commit, detect.
func Run(cfg Config) (*Outcome, error) { return core.AdaptiveTest(cfg) }

// RunCampaign repeats Run over consecutive seeds.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return core.RunCampaign(cfg)
}

// RunMerged executes an explicit merged pattern (expert use: replay and
// systematic exploration).
func RunMerged(cfg Config, merged Merged) (*Outcome, error) {
	return core.RunMerged(cfg, merged)
}

// AdaptiveCampaignConfig configures a coverage-guided campaign: between
// trials the distribution is reweighted toward PFA transitions the
// executed commands have not exercised yet.
type AdaptiveCampaignConfig = core.AdaptiveCampaignConfig

// AdaptiveCampaignResult extends the campaign result with the coverage
// trajectory and final refined distribution.
type AdaptiveCampaignResult = core.AdaptiveCampaignResult

// NoRefinement disables refinement in an adaptive campaign (control arm).
const NoRefinement = core.NoRefinement

// RunAdaptiveCampaign executes the coverage-guided refinement loop.
func RunAdaptiveCampaign(cfg AdaptiveCampaignConfig) (*AdaptiveCampaignResult, error) {
	return core.RunAdaptiveCampaign(cfg)
}

// --- pattern generation ---------------------------------------------------

// Distribution assigns conditional next-service probabilities, keyed by
// the previously executed service (StartLabel for the initial state).
type Distribution = pfa.Distribution

// StartLabel addresses the PFA's initial state in a Distribution.
const StartLabel = pfa.StartLabel

// PFA is the probabilistic finite-state automaton of Definition 1.
type PFA = pfa.PFA

// NewPFA compiles a service regular expression and attaches the
// distribution (nil = uniform over legal transitions).
func NewPFA(re string, d Distribution) (*PFA, error) { return pfa.FromRegex(re, d) }

// GenOptions tunes Algorithm 2's pattern generation.
type GenOptions = pfa.GenOptions

// Pattern is one generated test pattern.
type Pattern = pfa.Pattern

// The paper's canonical automata.
const (
	// PCoreRE is equation (2): the pCore task-management life cycle.
	PCoreRE = pfa.PCoreRE
	// Figure3RE is the didactic expression of Figure 3.
	Figure3RE = pfa.Figure3RE
)

// PCoreDistribution returns Figure 5's transition probabilities.
func PCoreDistribution() Distribution { return pfa.PCoreDistribution() }

// Figure3Distribution returns Figure 3's transition probabilities.
func Figure3Distribution() Distribution { return pfa.Figure3Distribution() }

// --- pattern merging --------------------------------------------------------

// Op selects the pattern-merger strategy.
type Op = pattern.Op

// Merger strategies (Algorithm 1's op parameter).
const (
	OpRoundRobin = pattern.OpRoundRobin
	OpRandom     = pattern.OpRandom
	OpCyclic     = pattern.OpCyclic
	OpPriority   = pattern.OpPriority
	OpSequential = pattern.OpSequential
)

// Ops lists every merger strategy.
func Ops() []Op { return pattern.Ops() }

// Merged is the final interleaved test pattern.
type Merged = pattern.Merged

// --- failure reports ----------------------------------------------------------

// Report is a detected failure with its reproduction journal, a frozen
// view that renders the Definition 2 record dump when printed.
type Report = detector.Report

// BugKind classifies failures.
type BugKind = detector.BugKind

// Failure classes.
const (
	BugCrash       = detector.BugCrash
	BugDeadlock    = detector.BugDeadlock
	BugHang        = detector.BugHang
	BugLivelock    = detector.BugLivelock
	BugStarvation  = detector.BugStarvation
	BugMasterPanic = detector.BugMasterPanic
)

// --- slave workloads -----------------------------------------------------------

// Factory supplies workload bodies for logical tasks.
type Factory = committee.Factory

// CreateSpec describes one slave task to create.
type CreateSpec = committee.CreateSpec

// SpinFactory returns idle control-loop tasks.
func SpinFactory() Factory { return app.SpinFactory() }

// QuicksortFactory returns the case-study-1 stress workload: each task
// sorts 128 2-byte integers within a 512-byte stack.
func QuicksortFactory(seed uint64) Factory { return app.QuicksortFactory(seed) }

// Philosophers returns the case-study-2 workload: n philosopher tasks
// over n mutually exclusive forks; ordered=false is the deadlock-prone
// variant.
func Philosophers(n, rounds int, ordered bool) (Factory, []*Mutex) {
	return app.Philosophers(n, rounds, ordered)
}

// ProducerConsumer returns the lost-wakeup workload.
func ProducerConsumer(items int) Factory { return app.ProducerConsumer(items) }

// PriorityInversion returns the starvation workload.
func PriorityInversion(hogBursts int) Factory { return app.PriorityInversion(hogBursts) }

// --- slave kernel configuration ---------------------------------------------------

// KernelConfig configures the simulated pCore slave.
type KernelConfig = pcore.Config

// FaultPlan seeds simulated kernel bugs (GC leak, lost resume, ...).
type FaultPlan = pcore.FaultPlan

// Mutex is a slave-side lock (exposed for workload assertions).
type Mutex = pcore.Mutex

// --- baselines ----------------------------------------------------------------------

// ContestConfig configures the ConTest-style noise-injection baseline.
type ContestConfig = contest.Config

// RunContest executes one noise-injection trial.
func RunContest(cfg ContestConfig) (*contest.Outcome, error) { return contest.Run(cfg) }

// RunContestCampaign repeats RunContest over consecutive seeds.
func RunContestCampaign(cfg ContestConfig, trials int, keepGoing bool) (*contest.CampaignResult, error) {
	return contest.RunCampaign(cfg, trials, keepGoing)
}

// ChessConfig configures the CHESS-style systematic explorer.
type ChessConfig = chess.Config

// RunChess executes a preemption-bounded systematic exploration.
func RunChess(cfg ChessConfig) (*chess.Result, error) { return chess.Explore(cfg) }

// --- profiling and reproduction -------------------------------------------

// ProfileCollector taps a committee's executed-command stream so a
// probability distribution can be learned from real usage.
type ProfileCollector = profile.Collector

// NewProfileCollector returns an empty profiling collector.
func NewProfileCollector() *ProfileCollector { return profile.NewCollector() }

// LearnDistribution fits service traces against an expression, returning
// the conditional next-service distribution with Laplace smoothing.
func LearnDistribution(re string, traces [][]string, smoothing float64) (Distribution, pfa.LearnResult, error) {
	return profile.Learn(re, traces, smoothing)
}

// ReproFile is a serialized failing run: the exact merged schedule plus
// platform configuration, re-executable bit-identically.
type ReproFile = replay.File

// NewReproFile captures a finished run for later replay; workload names
// the factory so the replayer can reconstruct it.
func NewReproFile(cfg Config, out *Outcome, workload string, workloadSeed uint64) *ReproFile {
	return replay.FromOutcome(cfg, out, workload, workloadSeed)
}

// LoadRepro reads a reproduction file.
func LoadRepro(r io.Reader) (*ReproFile, error) { return replay.Load(r) }

// --- suite orchestration ---------------------------------------------------

// SuiteSpec is the declarative campaign matrix: workloads × merge ops ×
// (n,s) points × PD variants × tools, expanded into a deterministic run
// plan and executed through the campaign engine.
type SuiteSpec = suite.Spec

// SuitePoint is one (n, s) matrix coordinate.
type SuitePoint = suite.Point

// SuiteReport is the aggregated machine-readable result of a suite run.
type SuiteReport = report.Report

// CampaignSummary is the tool-agnostic result of one campaign — what a
// registered Tool's Run returns and suite reports aggregate.
type CampaignSummary = report.CampaignSummary

// ParseSuiteSpec decodes, defaults and validates a matrix spec.
func ParseSuiteSpec(r io.Reader) (*SuiteSpec, error) { return suite.Parse(r) }

// RunSuite executes every cell of the spec; when jsonl is non-nil each
// completed cell streams to it as one JSON line in plan order.
func RunSuite(spec *SuiteSpec, jsonl io.Writer) (*SuiteReport, error) {
	return suite.Run(spec, jsonl)
}

// CompareReports diffs a baseline report against a new one and returns
// the regressions beyond the thresholds — the CI gate's core.
func CompareReports(oldR, newR *SuiteReport, th report.Thresholds) *report.Comparison {
	return report.Compare(oldR, newR, th)
}

// SuiteOptions tunes RunSuiteContext beyond the spec: the
// content-addressed result store, a custom executor, and a scoped
// event emitter for per-cell observability.
type SuiteOptions = suite.Options

// ErrSuiteInterrupted wraps out of RunSuiteContext when its context is
// cancelled mid-sweep; the accompanying report is the completed
// plan-order prefix, marked Interrupted.
var ErrSuiteInterrupted = suite.ErrInterrupted

// RunSuiteContext is RunSuite with cancellation and cell memoization.
func RunSuiteContext(ctx context.Context, spec *SuiteSpec, jsonl io.Writer, opts SuiteOptions) (*SuiteReport, error) {
	return suite.RunContext(ctx, spec, jsonl, opts)
}

// --- tool & workload registries --------------------------------------------

// Tool is one pluggable scheduling-perturbation strategy: validation,
// execution-time defaults, labeling, axis collapsing and the campaign
// runner behind one suite-matrix tool name. Register an implementation
// and it is immediately usable in suite specs, ptestd jobs, the result
// store and `ptest run -tool` — no dispatch-site edits anywhere.
type Tool = tool.Tool

// ToolSpec is a tool's declarative form in a suite matrix (name plus
// knobs). Its canonical JSON is hashed into cell-identity keys, so the
// struct only ever grows append-only omitempty fields.
type ToolSpec = tool.Spec

// ToolEnv is the resolved execution environment handed to a Tool's Run.
type ToolEnv = tool.Env

// ToolAxes declares which matrix axes a tool consumes; unconsumed axes
// collapse during expansion instead of multiplying identical cells.
type ToolAxes = tool.Axes

// RegisterTool adds a tool to the registry (panics on a duplicate
// name, as registration is an init-time act).
func RegisterTool(t Tool) { tool.Register(t) }

// ToolNames lists the registered tool names, sorted.
func ToolNames() []string { return tool.Names() }

// Tools returns the registered tools sorted by name.
func Tools() []Tool { return tool.Registered() }

// WorkloadSpec is a workload's declarative form in a suite matrix. Like
// ToolSpec it is part of the cell-identity cache contract.
type WorkloadSpec = workload.Spec

// WorkloadBuilder constructs a per-trial factory constructor for a
// defaulted workload spec; n is the cell's task count.
type WorkloadBuilder = workload.Builder

// WorkloadOption tunes a workload registration.
type WorkloadOption = workload.Option

// WorkloadDataSeeded marks a registered workload as consuming
// WorkloadSpec.Seed as its data seed (like quicksort's input).
func WorkloadDataSeeded() WorkloadOption { return workload.DataSeeded() }

// RegisterWorkload adds a workload under name (panics on a duplicate).
func RegisterWorkload(name, doc string, b WorkloadBuilder, opts ...WorkloadOption) {
	workload.Register(name, doc, b, opts...)
}

// WorkloadNames lists the registered workload names, sorted.
func WorkloadNames() []string { return workload.Names() }

// --- result store and job server -------------------------------------------

// CellStore is the pluggable result-store seam: anything answering
// content-addressed Get/Put (plus the telemetry methods) slots into
// SuiteOptions.Store, JobServerConfig.Store and the rest of the stack.
// ResultStore is the built-in implementation; a JobServer's store is
// reached through its jobs, never directly.
type CellStore = store.CellStore

// StoreCompactor is the optional garbage-collection face of a
// CellStore; type-assert a CellStore to it to trigger compaction.
type StoreCompactor = store.Compactor

// StorePolicyCompactor is the retention face of a compacting store:
// one compaction pass under an explicit StoreGCPolicy, overriding the
// configured one.
type StorePolicyCompactor = store.PolicyCompactor

// StoreBatchPutter is the optional batched-write face of a CellStore:
// the local store commits a whole batch under one fsync.
type StoreBatchPutter = store.BatchPutter

// StoreFlusher is the optional write-back face of a CellStore whose
// puts are not durable on return (the local store's unsynced appends);
// flush at job end so no computed cell outlives its job unpersisted.
type StoreFlusher = store.Flusher

// StoreCellEntry is one (key, cell) pair of a batched put.
type StoreCellEntry = store.CellEntry

// StoreGCPolicy is the result-store retention policy compaction
// applies: entries past MaxAge since creation or MaxIdle since last
// hit expire, as do records tagged with a schema below SchemaBelow.
// The zero policy keeps everything (pure compaction).
type StoreGCPolicy = store.GCPolicy

// StoreCompactResult describes one compaction pass: segments and bytes
// before/after, bytes reclaimed, live entries rewritten, plus what the
// GC policy expired and how many v1 records migrated to v2.
type StoreCompactResult = store.CompactResult

// ResultStore is the local content-addressed cell store: results keyed
// by the canonical cell-identity hash, an in-memory LRU in front of an
// append-only on-disk segment log with compaction/GC. A cell computed
// once — by Run variants, RunSuite, or a ptestd job — is never
// recomputed.
type ResultStore = store.Store

// StoreConfig sizes a ResultStore; the zero value is a memory-only
// store with default capacity. AutoCompactMinBytes arms background
// compaction.
type StoreConfig = store.Config

// OpenStore opens (or creates) a result store.
func OpenStore(cfg StoreConfig) (*ResultStore, error) { return store.Open(cfg) }

// JobServer is ptestd: suite specs over HTTP onto a bounded priority
// queue, a worker pool over the campaign engine, per-job SSE progress,
// and the shared ResultStore. Serve Handler() on any net/http server.
type JobServer = server.Server

// JobServerConfig sizes a JobServer.
type JobServerConfig = server.Config

// NewJobServer builds a daemon (workers are started with Start, drained
// with Drain).
func NewJobServer(cfg JobServerConfig) (*JobServer, error) { return server.New(cfg) }

// Client talks to a running ptestd over HTTP: submit suite specs,
// list/cancel jobs, stream plan-order progress, fetch reports.
type Client = server.Client

// ClientOption configures a Client at construction.
type ClientOption = server.ClientOption

// Client construction options: WithAPIKey authenticates against a hub
// running -auth-keys, WithHTTPClient swaps the transport, and
// WithRetryPolicy tunes the transient-error retry loop.
var (
	WithAPIKey      = server.WithAPIKey
	WithHTTPClient  = server.WithHTTPClient
	WithRetryPolicy = server.WithRetryPolicy
)

// NewClient builds a client for a ptestd base URL.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	return server.NewClient(baseURL, opts...)
}

// APIError is the decoded form of ptestd's uniform JSON error envelope
// ({"error":{"code","message","retry_after_s"}}); match broad classes
// with errors.Is against the sentinels below, or errors.As to inspect
// the status, code, and Retry-After duration.
type APIError = server.APIError

// Sentinel targets for errors.Is on client call errors.
var (
	ErrUnauthorized  = server.ErrUnauthorized
	ErrRateLimited   = server.ErrRateLimited
	ErrQuotaExceeded = server.ErrQuotaExceeded
)

// TenancyConfig is a JobServer's multi-tenant policy (set it on
// JobServerConfig.Tenancy): keyring auth, per-tenant rate limits, and
// in-flight/backlog caps. The zero value is anonymous mode — the server
// behaves exactly like a pre-tenant one.
type TenancyConfig = tenant.Config

// Keyring maps API keys to named, role-carrying tenants.
type Keyring = tenant.Keyring

// TenantRole is a tenant's scheduling and privilege class.
type TenantRole = tenant.Role

// Tenant roles: admins outrank and bypass limits, batch yields to
// everyone else.
const (
	RoleAdmin   = tenant.RoleAdmin
	RoleDefault = tenant.RoleDefault
	RoleBatch   = tenant.RoleBatch
)

// ParseKeyring reads `key tenant role` lines ('#' comments, blank lines
// skipped); LoadKeyfile does the same from a file path.
var (
	ParseKeyring = tenant.ParseKeyring
	LoadKeyfile  = tenant.LoadKeyfile
)

// JobInfo is the wire state of a submitted job.
type JobInfo = server.JobInfo

// JobStatus is a job's lifecycle state.
type JobStatus = server.JobStatus

// Job lifecycle states.
const (
	JobQueued    = server.JobQueued
	JobRunning   = server.JobRunning
	JobDone      = server.JobDone
	JobFailed    = server.JobFailed
	JobCancelled = server.JobCancelled
)

// --- fleet dispatch ---------------------------------------------------------

// DispatchConfig tunes a JobServer's fleet dispatcher: lease and worker
// TTLs, the per-cell retry budget and backoff, and the work-stealing
// age threshold. The zero value defaults sensibly; set it on
// JobServerConfig.Dispatch.
type DispatchConfig = dispatch.Config

// FleetWorker is one lease-polling cell executor: it registers with a
// hub JobServer, executes granted cells through the deterministic
// suite runner, and reports completions on the lease:batch calls that
// keep it live — surviving hub loss by finishing in-flight cells and
// re-registering. `ptest serve -hub-url` wraps exactly this type.
type FleetWorker = dispatch.Worker

// FleetWorkerConfig points a FleetWorker at its hub.
type FleetWorkerConfig = dispatch.WorkerConfig

// NewFleetWorker validates the config and builds a worker; Run drives
// it until its context ends.
func NewFleetWorker(cfg FleetWorkerConfig) (*FleetWorker, error) { return dispatch.NewWorker(cfg) }

// FleetWorkerInfo is one row of the hub's fleet membership listing —
// what Client.Workers and `ptest client workers` return.
type FleetWorkerInfo = dispatch.WorkerInfo

// DispatchMetrics snapshots the hub's dispatch counters: registrations,
// leases granted/expired/stolen, retries, completions and the cells the
// hub's own slots executed.
type DispatchMetrics = dispatch.Metrics

// --- fleet observability -----------------------------------------------------

// Event is one structured record in the fleet event log: what happened
// (a dot-hierarchy Type like "lease.granted"), to which job/tenant/
// worker/cell, when, and how long it took. Events are immutable once
// emitted and strictly ordered by Seq.
type Event = eventlog.Event

// EventRecorder is the append-only, bounded event log every ptestd
// subsystem emits into. Build one with NewEventRecorder, set it on
// JobServerConfig.Events; a nil recorder disables observability with
// zero behavioral change.
type EventRecorder = eventlog.Recorder

// EventLogConfig sizes an EventRecorder: ring capacity and an optional
// JSONL sink every event is appended to.
type EventLogConfig = eventlog.Config

// EventFilter narrows event queries: exact or dot-prefix Type match
// ("lease" matches lease.granted), plus Job and Tenant equality.
type EventFilter = eventlog.Filter

// ScopedEvents wraps a recorder with a job/tenant scope, so deep layers
// emit without threading identifiers; suite.Options carries one.
type ScopedEvents = eventlog.Scoped

// NewEventRecorder builds an event recorder.
func NewEventRecorder(cfg EventLogConfig) *EventRecorder { return eventlog.New(cfg) }

// EventsPage is the snapshot answer of GET /api/v1/events — the
// filtered events plus the cursor (LastSeq) for the next poll.
type EventsPage = server.EventsPage

// EventsFilter narrows Client.Events / Client.TailEvents server-side.
type EventsFilter = server.EventsFilter

// ServerHealth is the JSON body of GET /healthz: readiness, build info,
// queue and fleet gauges, store degradation.
type ServerHealth = server.Health
