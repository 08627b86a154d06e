// Package meshalloc is a trace-driven microsimulator for studying how
// processor-allocation algorithms interact with job communication
// patterns on space-shared mesh parallel machines: the paper's 2-D
// meshes and, via the dimension-generic topology layer, native n-D
// grids and tori (Config.Dims, e.g. []int{8, 8, 8} for the 3-D mesh
// CPlant physically was). It reproduces the system of Leung, Bunde and
// Mache, "Communication Patterns and Allocation Strategies"
// (SAND2003-4522 / IPPS 2004).
//
// The package is a facade over the implementation packages:
//
//   - allocation algorithms: Paging over space-filling curves (S-curve,
//     Hilbert, H-indexing) with free-list / First Fit / Best Fit /
//     Sum-of-Squares selection, the shell-scoring MC and MC1x1, Gen-Alg,
//     and a random baseline;
//   - communication patterns: all-to-all, n-body, random, ring,
//     all-pairs ping-pong, and the CPlant test suite;
//   - a flit-level-approximating wormhole network model of the mesh;
//   - a synthetic SDSC-Paragon workload generator and trace I/O;
//   - FCFS (and, as an extension, EASY backfilling) scheduling;
//   - versioned, checksummed engine snapshots (Engine.Snapshot and
//     RestoreEngine; Engine.AppendBinary encodes into a buffer the
//     caller reuses) for crash-safe resume, plus a runtime invariant
//     auditor (Engine.Audit, Config.AuditEvery);
//   - an experiment harness regenerating every figure in the paper.
//
// Quick start (closed-system batch replay, the paper's setup):
//
//	tr := meshalloc.NewSDSCTrace(meshalloc.SDSCConfig{Jobs: 500, MaxSize: 352, Seed: 1})
//	res, err := meshalloc.Run(meshalloc.Config{
//		MeshW: 16, MeshH: 22, // or Dims: []int{8, 8, 8} for native 3-D
//		Alloc:   "hilbert/bestfit",
//		Pattern: "nbody",
//		Load:    0.6,
//		TimeScale: 0.02,
//	}, tr)
//
// Open-system streaming (online submission, constant memory):
//
//	eng, err := meshalloc.NewEngine(meshalloc.Config{
//		MeshW: 16, MeshH: 16,
//		Alloc: "hilbert/bestfit", Pattern: "nbody",
//		KeepRecords: meshalloc.Discard, KeepNodes: meshalloc.Discard,
//	})
//	eng.Observe(func(r meshalloc.JobRecord) { /* stream each record */ })
//	err = eng.RunSource(meshalloc.NewPoissonSource(900, 256, 1), 1e6)
//	summary := eng.Result() // streaming mean, P² median, utilization
package meshalloc

import (
	"io"

	"meshalloc/internal/core"
	"meshalloc/internal/fault"
	"meshalloc/internal/sim"
	"meshalloc/internal/snap"
	"meshalloc/internal/trace"
)

// Config describes one simulation run; see the field documentation in
// the sim package.
type Config = sim.Config

// Result is the outcome of one simulation run.
type Result = sim.Result

// JobRecord is the per-job outcome record.
type JobRecord = sim.JobRecord

// IssueMode selects phased or sequential message injection.
type IssueMode = sim.IssueMode

// Issue modes.
const (
	IssuePhased     = sim.IssuePhased
	IssueSequential = sim.IssueSequential
)

// Engine is the resumable discrete-event core: online Submit while the
// clock runs, Step/RunUntil/Drain, streaming Observer callbacks, and
// constant-memory open-system runs under the Discard policies.
type Engine = sim.Engine

// Observer receives each finished job's record as it completes.
type Observer = sim.Observer

// KeepPolicy selects whether per-job data is retained (Keep, default)
// or only streamed to observers (Discard).
type KeepPolicy = sim.KeepPolicy

// Retention policies.
const (
	Keep    = sim.Keep
	Discard = sim.Discard
)

// Source is a pull-based job stream for open-system simulation.
type Source = trace.Source

// Trace is an arrival-ordered job stream.
type Trace = trace.Trace

// Job is one batch job of a trace.
type Job = trace.Job

// SDSCConfig parameterizes the synthetic SDSC Paragon workload.
type SDSCConfig = trace.SDSCConfig

// FaultConfig injects deterministic node failure/repair streams into a
// run via Config.Faults; the zero value disables injection. See
// fault.Config.
type FaultConfig = fault.Config

// FaultDist is a node lifetime (MTBF/MTTR) distribution.
type FaultDist = fault.Dist

// FaultEvent is one scripted node state transition.
type FaultEvent = fault.Event

// RetryPolicy governs jobs killed by node failures; set via
// Config.Retry. See fault.Retry.
type RetryPolicy = fault.Retry

// Fault event kinds and distribution families.
const (
	NodeDown        = fault.NodeDown
	NodeUp          = fault.NodeUp
	NodeDrain       = fault.NodeDrain
	NodeUndrain     = fault.NodeUndrain
	DistExponential = fault.DistExponential
	DistWeibull     = fault.DistWeibull
	RetryImmediate  = fault.RetryImmediate
	RetryNone       = fault.RetryNone
	RetryBackoff    = fault.RetryBackoff
)

// ParseFaultDist parses an MTBF/MTTR spec: "MEAN", "exp:MEAN" or
// "weibull:MEAN,SHAPE". See fault.ParseDist.
func ParseFaultDist(spec string) (FaultDist, error) { return fault.ParseDist(spec) }

// ParseRetryPolicy parses "none", "immediate[:N]" or
// "backoff:BASE,CAP[,N]". See fault.ParseRetry.
func ParseRetryPolicy(spec string) (RetryPolicy, error) { return fault.ParseRetry(spec) }

// ErrOversize is matched (via errors.Is) by the typed error
// Engine.Submit returns for jobs that can never be placed.
var ErrOversize = sim.ErrOversize

// OversizeError carries the offending job and capacity details of an
// ErrOversize rejection.
type OversizeError = sim.OversizeError

// RestoreEngine rebuilds an engine from a snapshot written by
// Engine.Snapshot. cfg must describe the same simulation as the
// snapshotted run (same seed, mesh, allocator, workload and fault
// parameters); ErrConfigMismatch reports a divergence. The restored
// engine continues bit-identically to the original. See
// sim.RestoreEngine.
func RestoreEngine(r io.Reader, cfg Config) (*Engine, error) { return sim.RestoreEngine(r, cfg) }

// ErrConfigMismatch is matched (via errors.Is) by RestoreEngine when
// the snapshot was taken under a different configuration.
var ErrConfigMismatch = sim.ErrConfigMismatch

// Snapshot container errors, matched via errors.Is against
// RestoreEngine failures: a non-snapshot file, an incompatible format
// version, a checksum failure, or any other corruption.
var (
	ErrSnapshotBadMagic = snap.ErrBadMagic
	ErrSnapshotVersion  = snap.ErrVersion
	ErrSnapshotChecksum = snap.ErrChecksum
	ErrSnapshotCorrupt  = snap.ErrCorrupt
)

// InvariantViolation is one failed engine invariant reported by
// Engine.Audit (matched via errors.As). See sim.Violation.
type InvariantViolation = sim.Violation

// SnapshotSource writes the position of a source built by this package
// to out as one checksummed container; write it alongside
// Engine.Snapshot to checkpoint an open-system run. See
// trace.SnapshotSource.
func SnapshotSource(out io.Writer, src Source) error { return trace.SnapshotSource(out, src) }

// RestoreSource sets src, built with the parameters of the source
// SnapshotSource wrote, to the position in the container in holds; a
// source of another kind or other parameters fails with
// ErrSourceMismatch. See trace.RestoreSource.
func RestoreSource(in io.Reader, src Source) error { return trace.RestoreSource(in, src) }

// ErrSourceMismatch is matched (via errors.Is) by RestoreSource when the
// state was written by another kind of source or one built with other
// parameters.
var ErrSourceMismatch = trace.ErrSourceMismatch

// SWFSkip is a line-numbered diagnostic from the lenient SWF reader.
type SWFSkip = trace.SWFSkip

// ReadSWFTrace parses a Standard Workload Format trace strictly:
// malformed lines abort with a line-numbered error. See trace.ReadSWF.
func ReadSWFTrace(r io.Reader) (*Trace, error) { return trace.ReadSWF(r) }

// ReadSWFTraceLenient parses SWF tolerantly, reporting every dropped
// line as a diagnostic instead of aborting. See trace.ReadSWFLenient.
func ReadSWFTraceLenient(r io.Reader) (*Trace, []SWFSkip, error) {
	return trace.ReadSWFLenient(r)
}

// Figure is one reproduced paper figure.
type Figure = core.Figure

// ExperimentOptions scales the figure-reproduction experiments.
type ExperimentOptions = core.Options

// Run simulates tr under cfg. See sim.Run.
func Run(cfg Config, tr *Trace) (*Result, error) { return sim.Run(cfg, tr) }

// NewEngine builds an idle engine for cfg. See sim.NewEngine.
func NewEngine(cfg Config) (*Engine, error) { return sim.NewEngine(cfg) }

// NewSDSCTrace synthesizes a workload with the SDSC Paragon's published
// statistics. See trace.NewSDSC.
func NewSDSCTrace(cfg SDSCConfig) *Trace { return trace.NewSDSC(cfg) }

// NewPoissonSource returns an unbounded open-system source with Poisson
// arrivals at the given mean interarrival time. See trace.NewPoisson.
func NewPoissonSource(meanInterarrival float64, maxSize int, seed int64) Source {
	return trace.NewPoisson(meanInterarrival, maxSize, seed)
}

// NewBurstySource returns an on/off (interrupted Poisson) open-system
// source. See trace.NewBursty.
func NewBurstySource(meanInterarrival, meanOn, meanOff float64, maxSize int, seed int64) Source {
	return trace.NewBursty(meanInterarrival, meanOn, meanOff, maxSize, seed)
}

// LimitSource caps a source at n jobs. See trace.Limit.
func LimitSource(src Source, n int) Source { return trace.Limit(src, n) }

// Allocators returns the nine allocator specs evaluated in the paper's
// response-time figures.
func Allocators() []string { return allocSpecs() }

// ReproduceFigure regenerates the paper figure with the given id ("1",
// "6", "7", "8", "9", "10", "11").
func ReproduceFigure(id string, o ExperimentOptions) (*Figure, error) {
	return core.FigureByID(id, o)
}
