// Package swcc is the public API of the swcc library, a reproduction of
// Owicki & Agarwal, "Evaluating the Performance of Software Cache
// Coherence" (ASPLOS 1989).
//
// The library has three layers, all re-exported here:
//
//   - The analytical model (internal/core): workload parameters (Params),
//     coherence schemes (Base, No-Cache, Software-Flush, Dragon), and the
//     bus/network contention models that turn them into processing-power
//     predictions. Start with MiddleParams and EvaluateBus.
//   - The validation substrate: a synthetic multiprocessor trace
//     generator (GenerateTrace, TracePreset), a trace-driven
//     multiprocessor cache+bus simulator (Simulate), and workload
//     parameter extraction (MeasureParams).
//   - The experiment registry (RunExperiment, Experiments): one runnable
//     experiment per table and figure of the paper.
//
// Quick start:
//
//	p := swcc.MiddleParams()
//	pts, err := swcc.EvaluateBus(swcc.Dragon{}, p, swcc.BusCosts(), 16)
//	// pts[15].Power is the 16-processor machine's processing power.
package swcc

import (
	"context"
	"io"

	"swcc/internal/core"
	"swcc/internal/experiments"
	"swcc/internal/measure"
	"swcc/internal/netsim"
	"swcc/internal/sensitivity"
	"swcc/internal/sim"
	"swcc/internal/sweep"
	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

// ---- Analytical model (the paper's contribution) ----

// Params holds the eleven workload parameters of paper Table 2.
type Params = core.Params

// Level selects a Table 7 range row (Low, Mid, High).
type Level = core.Level

// Table 7 levels.
const (
	Low  = core.Low
	Mid  = core.Mid
	High = core.High
)

// Scheme is a coherence scheme's workload model.
type Scheme = core.Scheme

// The paper's four schemes plus the extensions.
type (
	// Base is the coherence-free upper bound.
	Base = core.Base
	// NoCache marks shared data uncacheable.
	NoCache = core.NoCache
	// SoftwareFlush purges shared blocks with explicit flushes.
	SoftwareFlush = core.SoftwareFlush
	// Dragon is the snoopy write-broadcast hardware protocol.
	Dragon = core.Dragon
	// Directory is the directory-hardware extension.
	Directory = core.Directory
	// Hybrid mixes No-Cache locks with Software-Flush data
	// (Elxsi/MultiTitan style).
	Hybrid = core.Hybrid
	// WriteInvalidate is the MESI-style invalidation-based snoopy
	// hardware protocol.
	WriteInvalidate = core.WriteInvalidate
	// HybridUpdate splits shared writes between update broadcasts and
	// invalidations by a tunable fraction.
	HybridUpdate = core.HybridUpdate
	// PriorityBus wraps a scheme so coherence bus traffic is served at
	// higher priority than processor misses.
	PriorityBus = core.PriorityBus
)

// SchemeInfo is one scheme registry entry: the scheme plus its aliases,
// knob, and model-support metadata.
type SchemeInfo = core.Info

// SchemeInfoByName looks a registered scheme up by any accepted
// spelling.
func SchemeInfoByName(name string) (SchemeInfo, bool) { return core.SchemeInfoByName(name) }

// RegisteredSchemes returns every registered scheme's entry (default
// knob settings) in registration order.
func RegisteredSchemes() []SchemeInfo { return core.RegisteredSchemes() }

// SchemeNames returns the canonical registered scheme names, sorted.
func SchemeNames() []string { return core.SchemeNames() }

// CostTable is a system model: per-operation CPU and interconnect costs.
type CostTable = core.CostTable

// Demand is the per-instruction (c, b) resource demand of a scheme.
type Demand = core.Demand

// BusPoint is a bus-model prediction at one machine size.
type BusPoint = core.BusPoint

// NetworkPoint is a network-model prediction at one machine size.
type NetworkPoint = core.NetworkPoint

// FieldSpec describes one workload parameter and its Table 7 range.
type FieldSpec = core.FieldSpec

// MiddleParams returns the all-middle Table 7 workload, the paper's
// default operating point.
func MiddleParams() Params { return core.MiddleParams() }

// ParamsAt returns a workload with every parameter at the given level.
func ParamsAt(l Level) Params { return core.ParamsAt(l) }

// Fields returns the eleven parameter specs in Table 7 order.
func Fields() []FieldSpec { return core.Fields() }

// Schemes returns the paper's four schemes in presentation order.
func Schemes() []Scheme { return core.PaperSchemes() }

// SchemeByName resolves any registered scheme name or alias ("base",
// "nocache", "swflush", "dragon", "directory", "hybrid", "winv",
// "mesi", "hybrid-update", "swflush-prio", ...); unknown names get an
// error listing the valid canonical names.
func SchemeByName(name string) (Scheme, error) { return core.SchemeByName(name) }

// BusCosts returns the paper's Table 1 bus system model.
func BusCosts() *CostTable { return core.BusCosts() }

// NetworkCosts returns the paper's Table 9 system model for an n-stage
// circuit-switched multistage network.
func NetworkCosts(stages int) *CostTable { return core.NetworkCosts(stages) }

// BusCostsForBlock generalizes Table 1 to a block of `words` 4-byte
// words (Table 1 is the words = 4 instance).
func BusCostsForBlock(words int) *CostTable { return core.BusCostsForBlock(words) }

// NetworkCostsForBlock generalizes Table 9 over block size.
func NetworkCostsForBlock(stages, words int) *CostTable {
	return core.NetworkCostsForBlock(stages, words)
}

// ComputeDemand evaluates equations (1)-(2): per-instruction CPU and
// interconnect cycles for a scheme under a workload and system model.
func ComputeDemand(s Scheme, p Params, costs *CostTable) (Demand, error) {
	return core.ComputeDemand(s, p, costs)
}

// EvaluateBus predicts utilization and processing power on a shared bus
// for machine sizes 1..maxProcs.
func EvaluateBus(s Scheme, p Params, costs *CostTable, maxProcs int) ([]BusPoint, error) {
	return core.EvaluateBus(s, p, costs, maxProcs)
}

// BusPower returns processing power at exactly nproc processors.
func BusPower(s Scheme, p Params, costs *CostTable, nproc int) (float64, error) {
	return core.BusPower(s, p, costs, nproc)
}

// EvaluateNetwork predicts power on circuit-switched multistage networks
// of 2^1..2^maxStages processors.
func EvaluateNetwork(s Scheme, p Params, maxStages int) ([]NetworkPoint, error) {
	return core.EvaluateNetwork(s, p, maxStages)
}

// EvaluateNetworkAt predicts power for the 2^stages-processor network.
func EvaluateNetworkAt(s Scheme, p Params, stages int) (NetworkPoint, error) {
	return core.EvaluateNetworkAt(s, p, stages)
}

// EvaluatePacketNetwork is the packet-switched extension (paper Section 7
// future work).
func EvaluatePacketNetwork(s Scheme, p Params, stages int) (NetworkPoint, error) {
	return core.EvaluatePacketNetwork(s, p, stages)
}

// NetworkUtilization returns the raw Patel utilization for a 2^stages
// machine at the given per-processor transaction rate and message size in
// words (paper Figure 11's axes).
func NetworkUtilization(stages int, rate, msgWords float64) (float64, error) {
	return core.NetworkUtilization(stages, rate, msgWords)
}

// EvaluateNetworkMVA is the alternative load-dependent-server network
// contention model (paper footnote 2).
func EvaluateNetworkMVA(s Scheme, p Params, stages int) (NetworkPoint, error) {
	return core.EvaluateNetworkMVA(context.Background(), s, p, stages)
}

// APLToMatch returns the smallest apl at which Software-Flush matches the
// target scheme's bus processing power (found=false if unreachable).
func APLToMatch(target Scheme, p Params, costs *CostTable, nproc int) (apl float64, found bool, err error) {
	return core.APLToMatch(target, p, costs, nproc)
}

// MaxShdForPower returns the largest sharing fraction at which the scheme
// still delivers minPower on an nproc-processor bus.
func MaxShdForPower(s Scheme, p Params, costs *CostTable, nproc int, minPower float64) (shd float64, found bool, err error) {
	return core.MaxShdForPower(s, p, costs, nproc, minPower)
}

// EfficiencyVsBase returns the scheme's power as a fraction of Base's.
func EfficiencyVsBase(s Scheme, p Params, costs *CostTable, nproc int) (float64, error) {
	return core.EfficiencyVsBase(s, p, costs, nproc)
}

// Ranking scores one scheme on a workload.
type Ranking = core.Ranking

// RankBus sorts candidate schemes by bus processing power (unsupported
// candidates are skipped).
func RankBus(candidates []Scheme, p Params, costs *CostTable, nproc int) ([]Ranking, error) {
	return core.RankBus(candidates, p, costs, nproc)
}

// RankNetwork sorts candidate schemes by network processing power.
func RankNetwork(candidates []Scheme, p Params, stages int) ([]Ranking, error) {
	return core.RankNetwork(candidates, p, stages)
}

// Recommend returns the best implementable coherence scheme for the
// workload on an nproc-processor bus (stages == 0) or a 2^stages network.
func Recommend(p Params, nproc, stages int) (Ranking, error) {
	return core.Recommend(p, nproc, stages)
}

// ReadParams decodes a JSON workload (paper parameter names; omitted
// fields default to Table 7 middle values).
func ReadParams(r io.Reader) (Params, error) { return core.ReadParams(r) }

// ---- Validation substrate ----

// Trace is an interleaved multiprocessor address trace.
type Trace = trace.Trace

// Ref is one trace record: processor, kind, shared flag and a byte
// address of at most MaxAddr, packed into 8 bytes. Build one with
// NewRef; read it with its Addr, CPU, Kind and Shared methods.
type Ref = trace.Ref

// MaxAddr is the largest byte address a Ref holds (2^53 - 1).
const MaxAddr = trace.MaxAddr

// RefKind classifies a trace record.
type RefKind = trace.Kind

// Trace record kinds.
const (
	RefIFetch = trace.IFetch
	RefRead   = trace.Read
	RefWrite  = trace.Write
	RefFlush  = trace.Flush
)

// NewRef packs one trace record. It panics if addr exceeds MaxAddr.
func NewRef(cpu uint8, kind RefKind, addr uint64, shared bool) Ref {
	return trace.NewRef(cpu, kind, addr, shared)
}

// TraceConfig controls synthetic trace generation.
type TraceConfig = tracegen.Config

// CacheConfig sizes a per-processor simulated cache.
type CacheConfig = sim.CacheConfig

// SimConfig describes one simulation run. Its NCPU may be smaller than
// the trace's: the run then simulates the trace's first NCPU processors
// in place, as if on Trace.Restrict(NCPU), and WarmupRefs counts only
// their records.
type SimConfig = sim.Config

// SimResult is a simulation outcome.
type SimResult = sim.Result

// Protocol selects the simulated coherence scheme.
type Protocol = sim.Protocol

// Simulator protocols.
const (
	ProtoBase            = sim.ProtoBase
	ProtoDragon          = sim.ProtoDragon
	ProtoNoCache         = sim.ProtoNoCache
	ProtoSoftwareFlush   = sim.ProtoSoftwareFlush
	ProtoWriteInvalidate = sim.ProtoWriteInvalidate
)

// Medium selects the simulated interconnect.
type Medium = sim.Medium

// Simulator interconnect media.
const (
	// MediumBus is the shared bus (the paper's validation substrate).
	MediumBus = sim.MediumBus
	// MediumNetwork is a circuit-switched multistage butterfly.
	MediumNetwork = sim.MediumNetwork
)

// NetSimConfig configures the cycle-level circuit-switched network
// simulator used to validate Patel's model.
type NetSimConfig = netsim.Config

// NetSimResult is its outcome.
type NetSimResult = netsim.Result

// SimulateNetwork runs the cycle-level multistage-network simulation
// (processors alternating think/transaction against held circuits with
// per-cycle retries).
func SimulateNetwork(cfg NetSimConfig) (*NetSimResult, error) { return netsim.Run(cfg) }

// Measurement holds workload parameters extracted from a trace.
type Measurement = measure.Measurement

// DefaultTraceConfig returns a 4-processor middle-of-the-road workload.
func DefaultTraceConfig() TraceConfig { return tracegen.DefaultConfig() }

// TracePreset returns a named validation workload ("pops", "thor",
// "pero", "pero8").
func TracePreset(name string) (TraceConfig, error) { return tracegen.Preset(name) }

// TracePresets lists the preset names.
func TracePresets() []string { return tracegen.PresetNames() }

// GenerateTrace synthesizes a multiprocessor trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return tracegen.Generate(cfg) }

// Simulate replays a trace under a coherence protocol on per-processor
// caches and a contended bus.
func Simulate(cfg SimConfig, t *Trace) (*SimResult, error) { return sim.Run(cfg, t) }

// MeasureParams extracts the Table 2 workload parameters from a trace,
// warming the shadow-simulation caches on the leading warmupFrac of the
// records.
func MeasureParams(t *Trace, cache CacheConfig, warmupFrac float64) (*Measurement, error) {
	return measure.Extract(t, cache, warmupFrac)
}

// MeasureStability reports, per parameter, the relative divergence
// between measurements on the two halves of the trace — a diagnostic
// for whether the trace is long and stationary enough to trust.
func MeasureStability(t *Trace, cache CacheConfig, warmupFrac float64) (map[string]float64, error) {
	return measure.Stability(t, cache, warmupFrac)
}

// ---- Sensitivity analysis and experiments ----

// SensitivityTable is the Table 8 reproduction.
type SensitivityTable = sensitivity.Table

// AnalyzeSensitivity runs the one-at-a-time low→high parameter sweep.
func AnalyzeSensitivity(schemes []Scheme, nproc int) (*SensitivityTable, error) {
	return sensitivity.AnalyzeWithCtx(context.Background(), sweep.New(0), schemes, nproc)
}

// Experiment describes one registered table/figure experiment.
type Experiment = experiments.Spec

// ExperimentOptions tunes experiment execution.
type ExperimentOptions = experiments.Options

// Dataset is a regenerated table or figure.
type Dataset = experiments.Dataset

// Experiments lists every registered experiment.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates one paper artifact by ID ("table8", "fig4",
// ...).
func RunExperiment(id string, opt ExperimentOptions) (*Dataset, error) {
	return experiments.RunCtx(context.Background(), id, opt)
}
