// Package streamfloat is a from-scratch reproduction of "Stream Floating:
// Enabling Proactive and Decentralized Cache Optimizations" (HPCA 2021):
// a discrete-event simulator of a tiled multicore whose decoupled-stream
// ISA lets long-lived access patterns float out of the core and into the
// shared-cache stream engines, where they are fetched proactively, merged
// across cores, and delivered without coherence bookkeeping.
//
// The package is a thin facade over the internal simulator:
//
//	cfg, _ := streamfloat.ConfigFor("SF", streamfloat.OOO8)
//	res, _ := streamfloat.Run(cfg, "conv3d", 1.0)
//	fmt.Println(res.Stats.Cycles, res.Stats.TotalFlitHops())
//
// Experiment regenerates one figure or table of the paper by id; the sfexp
// command regenerates them all, as text, CSV or JSON (see EXPERIMENTS.md).
package streamfloat

import (
	"context"

	"streamfloat/internal/config"
	"streamfloat/internal/energy"
	"streamfloat/internal/event"
	"streamfloat/internal/experiments"
	"streamfloat/internal/sample"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/system"
	"streamfloat/internal/trace"
	"streamfloat/internal/workload"
)

// Config is the machine configuration (Table III defaults).
type Config = config.Config

// CoreKind selects the core microarchitecture.
type CoreKind = config.CoreKind

// The three evaluated cores.
const (
	IO4  = config.IO4
	OOO4 = config.OOO4
	OOO8 = config.OOO8
)

// Stream modes.
const (
	StreamOff = config.StreamOff
	StreamSS  = config.StreamSS
	StreamSF  = config.StreamSF
)

// SanitizeMode selects the runtime invariant sanitizer: SanitizeAuto (the
// zero value) enables it inside `go test` binaries and disables it otherwise,
// SanitizeOn/SanitizeOff force it. Set Config.Sanitize before Build/Run.
type SanitizeMode = sanitize.Mode

// Sanitizer modes for Config.Sanitize.
const (
	SanitizeAuto = sanitize.ModeAuto
	SanitizeOn   = sanitize.ModeOn
	SanitizeOff  = sanitize.ModeOff
)

// ParseSanitizeMode parses a -sanitize style flag value ("auto", "on",
// "off" and common spellings of each).
func ParseSanitizeMode(s string) (SanitizeMode, error) { return sanitize.ParseMode(s) }

// Results is the outcome of one simulation: the full statistics plus the
// configuration that produced them.
type Results = system.Results

// Machine is a fully built simulator instance, for callers that want to
// inspect components or bound simulated time themselves.
type Machine = system.Machine

// Cycle is simulated time in core clock cycles.
type Cycle = event.Cycle

// AreaBreakdown reports the stream-floating hardware area (§VII-A).
type AreaBreakdown = energy.AreaBreakdown

// Kernel is the workload interface; custom kernels implement it and join
// the registry via RegisterKernel.
type Kernel = workload.Kernel

// DefaultConfig returns the Table III machine: an 8x8 mesh of OOO8 tiles
// with no prefetching and streams off (the Base system).
func DefaultConfig() Config { return config.Default() }

// ConfigFor returns the configuration of a named comparison system from
// §VI: "Base", "Stride", "Bingo", "SS", "SF", "SF-Aff" or "SF-Ind".
func ConfigFor(system string, core CoreKind) (Config, error) {
	return config.ForSystem(system, core)
}

// Systems lists the comparison systems in the paper's presentation order.
func Systems() []string { return config.SystemNames() }

// Benchmarks lists the workload suite (10 Rodinia kernels plus mv and
// conv3d, Table IV).
func Benchmarks() []string { return workload.Names() }

// RegisterKernel adds a custom workload to the registry.
func RegisterKernel(name string, factory func() Kernel) {
	workload.Register(name, factory)
}

// Build constructs a machine for cfg with the named benchmark prepared at
// the given dataset scale (1.0 = calibrated defaults).
func Build(cfg Config, benchmark string, scale float64) (*Machine, error) {
	return system.Build(cfg, benchmark, scale)
}

// Run builds and runs one benchmark to completion; with cfg.Sample enabled
// it runs the sampled estimator and Results.Sampled carries the estimate.
func Run(cfg Config, benchmark string, scale float64) (Results, error) {
	return sample.Run(context.Background(), cfg, benchmark, scale)
}

// RunContext is Run with cancellation: the simulation's event loop polls ctx
// and aborts promptly (within a few thousand processed events) once it is
// cancelled or times out.
func RunContext(ctx context.Context, cfg Config, benchmark string, scale float64) (Results, error) {
	return sample.Run(ctx, cfg, benchmark, scale)
}

// SampleParams selects sampled simulation (set Config.Sample): each kernel
// phase is partitioned into K intervals, a seeded block of them is simulated
// in detail after functional fast-forward, and the block's statistics are
// extrapolated into whole-run estimates with 95% confidence intervals,
// reported in Results.Sampled.
type SampleParams = config.SampleParams

// SampleEstimate is one estimated metric: mean, 95% half-width, and the
// number of measured intervals behind it.
type SampleEstimate = stats.Estimate

// ParseBenchmarks parses a comma-separated benchmark list (as accepted by
// the sfexp/sfserve -bench inputs): names are whitespace-trimmed and
// validated against the registered suite up front, so typos are reported
// before any simulation runs. An empty input returns nil (= full suite).
func ParseBenchmarks(list string) ([]string, error) {
	return workload.ParseNames(list)
}

// Tracer is the structured simulation tracer: per-tile ring buffers of
// compact events, per-load latency attribution, stream lifecycle spans, and
// per-link NoC traffic counts. Attach one via Machine.AttachTracer or the
// RunTraced helper; export with WriteChromeFile (Perfetto-loadable) or the
// sftrace command's renderers. Tracing is purely observational.
type Tracer = trace.Tracer

// TraceFile is a parsed sftrace Chrome-trace export (see trace.ReadFile).
type TraceFile = trace.File

// NewTracer sizes a tracer for cfg. label names the run in exports (e.g.
// "SF/OOO8"); ringDepth 0 picks the default per-tile depth.
func NewTracer(cfg Config, benchmark, label string, ringDepth int) *Tracer {
	return system.NewTracer(cfg, benchmark, label, ringDepth)
}

// RunTraced builds and runs one benchmark with tracing attached, returning
// the results alongside the finished tracer.
func RunTraced(cfg Config, benchmark, label string, scale float64) (Results, *Tracer, error) {
	return system.RunBenchmarkTraced(context.Background(), cfg, benchmark, label, scale)
}

// ReadTrace parses a Chrome-trace JSON file written by WriteChromeFile /
// sfexp -trace back into its summary form.
func ReadTrace(path string) (*TraceFile, error) { return trace.ReadFile(path) }

// Area computes the stream-floating area overheads for a configuration.
func Area(cfg Config) AreaBreakdown { return energy.Area(cfg) }

// ExperimentOptions sizes an experiment sweep.
type ExperimentOptions = experiments.Options

// ExperimentTable is one regenerated figure/table.
type ExperimentTable = experiments.Table

// Experiment runs one figure or table by id ("2", "13"..."19", "area",
// "ablations" or "latency") and returns its table.
func Experiment(id string, opts ExperimentOptions) (*ExperimentTable, error) {
	fn, ok := experiments.ByName(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return fn(opts)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "streamfloat: unknown experiment " + string(e) + " (want 2, 13-19, area, ablations, or latency)"
}
