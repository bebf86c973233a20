// Package measure extracts the paper's Table 2 workload parameters from a
// multiprocessor address trace, the way the authors calibrated their model
// from the ATUM-2 traces:
//
//   - ls, shd, wr, apl, mdshd come from direct stream analysis;
//   - msdat, mains, md come from a Base-scheme shadow simulation with the
//     caller's cache geometry;
//   - oclean, opres, nshd come from a Dragon shadow simulation's snoop
//     observations.
package measure

import (
	"errors"
	"fmt"
	"math/bits"

	"swcc/internal/core"
	"swcc/internal/sim"
	"swcc/internal/trace"
)

// ErrEmptyTrace reports a trace with no instructions to measure.
var ErrEmptyTrace = errors.New("measure: trace has no instructions")

// Measurement holds the extracted parameters plus provenance counters
// useful for reporting.
type Measurement struct {
	// Params is the extracted Table 2 parameter set, ready to feed the
	// analytical model.
	Params core.Params
	// Runs is the number of write-containing per-processor reference
	// runs used to estimate apl.
	Runs int
	// RunRefs is the total references across those runs.
	RunRefs int
	// FlushDelimited reports whether apl/mdshd came from explicit
	// flush records (true) or from inter-processor handoffs (false).
	FlushDelimited bool
	// Base and Dragon are the shadow-simulation results, exposed so
	// validation can reuse them without re-simulating.
	Base, Dragon *sim.Result
}

// Stability quantifies how trustworthy a measurement is: it re-measures
// each half of the trace independently and reports, per parameter, the
// relative difference between the halves. Parameters that disagree badly
// between halves (short trace, phase behavior) should be treated as
// ranges, not point values — the paper makes the same caveat about its
// own short traces. Preparing the halves validates every record once; a
// malformed one fails with the error its half's Validate reports.
func Stability(t *trace.Trace, cache sim.CacheConfig, warmupFrac float64) (map[string]float64, error) {
	mid := len(t.Refs) / 2
	first, err := sim.Prepare(&trace.Trace{NCPU: t.NCPU, Refs: t.Refs[:mid]})
	if err != nil {
		return nil, fmt.Errorf("measure: first half: %w", err)
	}
	second, err := sim.Prepare(&trace.Trace{NCPU: t.NCPU, Refs: t.Refs[mid:]})
	if err != nil {
		return nil, fmt.Errorf("measure: second half: %w", err)
	}
	if err := checkWarmup(warmupFrac); err != nil {
		return nil, err
	}
	if len(t.Refs) < 4 {
		return nil, fmt.Errorf("measure: trace too short for split-half analysis")
	}
	a, err := ExtractPrepared(first, t.NCPU, cache, warmupFrac)
	if err != nil {
		return nil, fmt.Errorf("measure: first half: %w", err)
	}
	b, err := ExtractPrepared(second, t.NCPU, cache, warmupFrac)
	if err != nil {
		return nil, fmt.Errorf("measure: second half: %w", err)
	}
	out := make(map[string]float64, 11)
	for _, f := range core.Fields() {
		va, vb := f.Get(&a.Params), f.Get(&b.Params)
		mean := (va + vb) / 2
		if mean == 0 {
			out[f.Name] = 0
			continue
		}
		diff := va - vb
		if diff < 0 {
			diff = -diff
		}
		out[f.Name] = diff / mean
	}
	return out, nil
}

// checkWarmup rejects a warmup fraction outside [0,1). The test is
// written so NaN fails it too: int(NaN*len) would otherwise reach the
// simulator as a huge negative record count.
func checkWarmup(frac float64) error {
	if !(frac >= 0 && frac < 1) {
		return fmt.Errorf("measure: warmup fraction %g not in [0,1)", frac)
	}
	return nil
}

// Extract measures all eleven parameters of the trace under the given
// cache geometry. warmupFrac in [0,1) is the leading fraction of the
// trace used only to warm the caches in the shadow simulations; 0.5 is a
// sensible default for synthetic traces, compensating for compulsory
// misses that a longer real trace would amortize. It is ExtractPrepared
// of the whole machine.
func Extract(t *trace.Trace, cache sim.CacheConfig, warmupFrac float64) (*Measurement, error) {
	p, err := sim.Prepare(t)
	if err != nil {
		return nil, err
	}
	return ExtractPrepared(p, t.NCPU, cache, warmupFrac)
}

// ExtractPrepared measures the parameters of an n-processor machine
// running the prepared trace's first n processors, in place: the result
// equals Extract(t.Restrict(n), cache, warmupFrac) without the copy.
// It is Stream, then the Base and Dragon shadows run at n from p with
// a warmup of warmupFrac of those processors' records, then
// WithShadows. Any number of concurrent calls may share p; a caller
// that already holds the shadow results calls Stream and WithShadows
// itself.
func ExtractPrepared(p *sim.Prepared, n int, cache sim.CacheConfig, warmupFrac float64) (*Measurement, error) {
	if err := checkWarmup(warmupFrac); err != nil {
		return nil, err
	}
	m, err := Stream(p.Trace(), n, cache.BlockSize)
	if err != nil {
		return nil, err
	}
	warmup := int(float64(p.Records(n)) * warmupFrac)
	base, err := p.Run(sim.Config{NCPU: n, Cache: cache, Protocol: sim.ProtoBase, WarmupRefs: warmup})
	if err != nil {
		return nil, fmt.Errorf("measure: base shadow simulation: %w", err)
	}
	dragon, err := p.Run(sim.Config{NCPU: n, Cache: cache, Protocol: sim.ProtoDragon, WarmupRefs: warmup})
	if err != nil {
		return nil, fmt.Errorf("measure: dragon shadow simulation: %w", err)
	}
	return m.WithShadows(base, dragon)
}

// Stream measures ls, shd, wr, apl and mdshd of an n-processor machine
// running t's first n processors, in one pass over their records,
// keying shared-block runs on blockSize-byte blocks. It is the part of
// a measurement that needs no simulation; WithShadows completes it.
func Stream(t *trace.Trace, n, blockSize int) (*Measurement, error) {
	if n < 1 || n > t.NCPU {
		return nil, fmt.Errorf("measure: machine size %d not in 1..%d", n, t.NCPU)
	}
	m := &Measurement{}
	if err := m.streamAnalysis(t, n, blockSize); err != nil {
		return nil, err
	}
	return m, nil
}

// WithShadows returns the stream measurement m completed by its
// machine's Base and Dragon shadow simulations (same processors, cache
// and warmup): msdat, mains and md come from base, oclean, opres and
// nshd from dragon. It is pure: m and the results are left unchanged,
// and the returned measurement references the results.
func (m *Measurement) WithShadows(base, dragon *sim.Result) (*Measurement, error) {
	if base.Config.Protocol != sim.ProtoBase || dragon.Config.Protocol != sim.ProtoDragon {
		return nil, fmt.Errorf("measure: shadows are %v and %v, want Base and Dragon", base.Config.Protocol, dragon.Config.Protocol)
	}
	out := *m
	out.Base, out.Dragon = base, dragon
	tot := base.Totals()
	if tot.DataRefs() > 0 {
		out.Params.MsDat = float64(tot.DataMisses) / float64(tot.DataRefs())
	}
	if tot.Instructions > 0 {
		out.Params.MsIns = float64(tot.InstrMisses) / float64(tot.Instructions)
	}
	if misses := tot.DataMisses + tot.InstrMisses; misses > 0 {
		out.Params.MD = float64(tot.DirtyReplacements) / float64(misses)
	}
	out.Params.OClean = dragon.Snoop.OClean()
	out.Params.OPres = dragon.Snoop.OPres()
	out.Params.NShd = dragon.Snoop.NShd()
	if err := out.Params.Validate(); err != nil {
		return nil, fmt.Errorf("measure: extracted parameters invalid: %w", err)
	}
	return &out, nil
}

// streamAnalysis fills ls, shd, wr, apl, mdshd from the records of
// processors 0..n-1, keying shared-block runs on blockSize-byte blocks.
func (m *Measurement) streamAnalysis(t *trace.Trace, n, blockSize int) error {
	var instr, data, sharedData, sharedWrites, flushes int
	for _, r := range t.Refs {
		switch {
		case int(r.CPU()) >= n:
		case r.Kind() == trace.IFetch:
			instr++
		case r.Kind() == trace.Flush:
			flushes++
		case r.Kind().IsData():
			data++
			if r.Shared() {
				sharedData++
				if r.Kind() == trace.Write {
					sharedWrites++
				}
			}
		}
	}
	if instr == 0 {
		return ErrEmptyTrace
	}
	m.Params.LS = float64(data) / float64(instr)
	if data > 0 {
		m.Params.Shd = float64(sharedData) / float64(data)
	}
	if sharedData > 0 {
		m.Params.WR = float64(sharedWrites) / float64(sharedData)
	}
	// A block size that is not a power of two fails the shadow
	// simulations' cache check; any shift serves until then.
	blockShift := uint(bits.TrailingZeros(uint(blockSize)))
	m.FlushDelimited = flushes > 0
	if m.FlushDelimited {
		m.aplFromFlushes(t, n, blockShift)
	} else {
		m.aplFromHandoffs(t, n, blockShift)
	}
	if m.Params.APL < 1 {
		m.Params.APL = 1
	}
	return nil
}

type runState struct {
	count    int
	hasWrite bool
}

type cpuBlock struct {
	cpu   uint8
	block uint64
}

// aplFromFlushes delimits per-processor runs on shared blocks by the
// trace's explicit flush records: apl is the mean references per
// flushed-block run, mdshd the fraction of flushes whose block was
// written during the run.
func (m *Measurement) aplFromFlushes(t *trace.Trace, n int, blockShift uint) {
	runs := map[cpuBlock]*runState{}
	var totalRuns, totalRefs, dirtyRuns int
	for _, r := range t.Refs {
		if int(r.CPU()) >= n {
			continue
		}
		key := cpuBlock{r.CPU(), r.Addr() >> blockShift}
		switch {
		case r.Kind() == trace.Flush:
			if st, ok := runs[key]; ok {
				totalRuns++
				totalRefs += st.count
				if st.hasWrite {
					dirtyRuns++
				}
				delete(runs, key)
			}
		case r.Kind().IsData() && r.Shared():
			st := runs[key]
			if st == nil {
				st = &runState{}
				runs[key] = st
			}
			st.count++
			if r.Kind() == trace.Write {
				st.hasWrite = true
			}
		}
	}
	if totalRuns > 0 {
		m.Params.APL = float64(totalRefs) / float64(totalRuns)
		m.Params.MdShd = float64(dirtyRuns) / float64(totalRuns)
	}
	m.Runs = totalRuns
	m.RunRefs = totalRefs
}

// aplFromHandoffs reproduces the paper's estimate for traces without
// flush records: count references to a shared block by one processor
// (at least one a write) between references by another processor.
func (m *Measurement) aplFromHandoffs(t *trace.Trace, n int, blockShift uint) {
	type blockState struct {
		owner uint8
		run   runState
	}
	blocks := map[uint64]*blockState{}
	var totalRuns, totalRefs, dirtyRuns, allRuns int
	endRun := func(st *blockState) {
		allRuns++
		if st.run.hasWrite {
			totalRuns++
			totalRefs += st.run.count
			dirtyRuns++
		}
		st.run = runState{}
	}
	for _, r := range t.Refs {
		if int(r.CPU()) >= n || !r.Kind().IsData() || !r.Shared() {
			continue
		}
		blk := r.Addr() >> blockShift
		st := blocks[blk]
		if st == nil {
			st = &blockState{owner: r.CPU()}
			blocks[blk] = st
		}
		if r.CPU() != st.owner {
			endRun(st)
			st.owner = r.CPU()
		}
		st.run.count++
		if r.Kind() == trace.Write {
			st.run.hasWrite = true
		}
	}
	for _, st := range blocks {
		if st.run.count > 0 {
			endRun(st)
		}
	}
	if totalRuns > 0 {
		m.Params.APL = float64(totalRefs) / float64(totalRuns)
	}
	if allRuns > 0 {
		m.Params.MdShd = float64(dirtyRuns) / float64(allRuns)
	}
	m.Runs = totalRuns
	m.RunRefs = totalRefs
}
