package core

import (
	"errors"
	"fmt"
	"sort"
)

// ErrUnsupported reports a scheme evaluated on hardware that cannot
// implement it (e.g. Dragon on a multistage network, which has no
// broadcast medium for snooping).
var ErrUnsupported = errors.New("core: scheme unsupported on this interconnect")

// OpFreq pairs an operation with its frequency per (non-flush) instruction.
type OpFreq struct {
	// Op is the bus/network operation.
	Op Op
	// Freq is the operation's frequency per (non-flush) instruction.
	Freq float64
}

// OpFreqs is a scheme's operation-frequency list, held by value in a
// fixed array plus a count. ComputeDemand runs on every model query, and
// a slice returned through the Scheme interface would escape to the
// heap on each call; an array returned by value does not. The array is
// as long as the longest list (Hybrid-Update's), since every byte of it
// is copied on each return.
type OpFreqs struct {
	ops [8]OpFreq
	n   int
}

// MakeOpFreqs returns the list fs, in order. Past eight entries it
// panics, a scheme definition bug no workload can trigger. It is small
// enough to inline, so a scheme builds its list in place.
func MakeOpFreqs(fs []OpFreq) (l OpFreqs) {
	if len(fs) > len(l.ops) {
		panic("core: more operation frequencies than OpFreqs holds")
	}
	l.n = copy(l.ops[:], fs)
	return l
}

// List returns the operations in the order the scheme listed them.
func (l *OpFreqs) List() []OpFreq { return l.ops[:l.n] }

// Scheme is a cache-coherence scheme's workload model: it converts the
// workload parameters into per-instruction operation frequencies (paper
// Tables 3-6).
type Scheme interface {
	// Name returns the paper's name for the scheme.
	Name() string
	// Frequencies returns the operation frequencies per instruction for
	// the workload p. The list always includes OpInstr with frequency 1.
	Frequencies(p Params) (OpFreqs, error)
}

// Demand holds the per-instruction resource demands of a scheme under a
// workload and cost table (paper equations 1-2).
type Demand struct {
	// CPU is c: mean CPU cycles per instruction without contention.
	CPU float64
	// Interconnect is b: mean bus/network cycles per instruction.
	Interconnect float64
	// Priority is the portion of Interconnect issued as high-priority
	// transactions under a priority bus service discipline. It is zero
	// for every FCFS scheme — the paper's model and all pre-registry
	// extensions — and only nonzero when the scheme implements
	// PrioritySplitter (the PriorityBus wrapper). FCFS demand math is
	// untouched: CPU and Interconnect accumulate exactly as before.
	Priority float64
}

// Think returns c-b, the mean cycles between the end of one interconnect
// transaction and the start of the next.
func (d Demand) Think() float64 { return d.CPU - d.Interconnect }

// PrioritySplit returns the per-class service demands for the priority
// bus discipline: hi is the high-priority share, lo the remainder of
// Interconnect. lo is clamped at zero so float rounding in the two
// accumulations can never produce a negative class demand.
func (d Demand) PrioritySplit() (hi, lo float64) {
	hi = d.Priority
	lo = d.Interconnect - d.Priority
	if lo < 0 {
		lo = 0
	}
	return hi, lo
}

// PrioritySplitter is implemented by schemes that request a priority
// (head-of-line) bus service discipline instead of FCFS: operations it
// classifies high-priority contribute to Demand.Priority, and the bus
// contention model routes the demand through the two-class priority MVA
// solver instead of the FCFS one. Schemes that do not implement it get
// FCFS, bit-identical to the pre-registry model.
type PrioritySplitter interface {
	// HighPriority reports whether op is served in the high-priority
	// class (short address/word transactions) rather than the
	// low-priority class (block transfers).
	HighPriority(op Op) bool
}

// ComputeDemand evaluates equations (1) and (2): it weights each
// operation's cost by its frequency. It fails if the scheme uses an
// operation the cost table does not define, which is how evaluating Dragon
// on a network is rejected.
func ComputeDemand(s Scheme, p Params, costs *CostTable) (Demand, error) {
	if err := p.Validate(); err != nil {
		return Demand{}, fmt.Errorf("%s: %w", s.Name(), err)
	}
	freqs, err := s.Frequencies(p)
	if err != nil {
		return Demand{}, err
	}
	split, prioritized := s.(PrioritySplitter)
	var d Demand
	for _, f := range freqs.List() {
		if f.Freq == 0 {
			continue
		}
		if f.Freq < 0 {
			return Demand{}, fmt.Errorf("core: %s: negative frequency %g for %v", s.Name(), f.Freq, f.Op)
		}
		if !costs.Defines(f.Op) {
			return Demand{}, fmt.Errorf("%w: %s needs %v, not in %s model", ErrUnsupported, s.Name(), f.Op, costs.Name)
		}
		c := costs.Cost(f.Op)
		d.CPU += f.Freq * c.CPU
		d.Interconnect += f.Freq * c.Interconnect
		if prioritized && split.HighPriority(f.Op) {
			d.Priority += f.Freq * c.Interconnect
		}
	}
	return d, nil
}

// OpContribution is one operation's share of a scheme's per-instruction
// demand.
type OpContribution struct {
	// Op is the hardware operation.
	Op Op
	// Freq is its frequency per instruction.
	Freq float64
	// CPU and Interconnect are its cycle contributions
	// (freq x unit cost).
	CPU, Interconnect float64
	// CPUShare and InterconnectShare are the fractions of the totals.
	CPUShare, InterconnectShare float64
}

// DemandBreakdown itemizes equations (1)-(2): where a scheme's CPU and
// interconnect cycles actually go, operation by operation, sorted by
// descending interconnect contribution. The answer to "what would I
// optimize first?" for each scheme.
func DemandBreakdown(s Scheme, p Params, costs *CostTable) ([]OpContribution, Demand, error) {
	d, err := ComputeDemand(s, p, costs)
	if err != nil {
		return nil, Demand{}, err
	}
	freqs, err := s.Frequencies(p)
	if err != nil {
		return nil, Demand{}, err
	}
	byOp := map[Op]*OpContribution{}
	for _, f := range freqs.List() {
		c := costs.Cost(f.Op)
		oc := byOp[f.Op]
		if oc == nil {
			oc = &OpContribution{Op: f.Op}
			byOp[f.Op] = oc
		}
		oc.Freq += f.Freq
		oc.CPU += f.Freq * c.CPU
		oc.Interconnect += f.Freq * c.Interconnect
	}
	out := make([]OpContribution, 0, len(byOp))
	for _, oc := range byOp {
		if d.CPU > 0 {
			oc.CPUShare = oc.CPU / d.CPU
		}
		if d.Interconnect > 0 {
			oc.InterconnectShare = oc.Interconnect / d.Interconnect
		}
		out = append(out, *oc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Interconnect != out[j].Interconnect {
			return out[i].Interconnect > out[j].Interconnect
		}
		return out[i].Op < out[j].Op
	})
	return out, d, nil
}

// SchemeKey is a scheme's cache identity: two schemes with equal keys
// produce identical demands for every workload and cost table. Knobbed
// schemes carry their exact knob value in strconv's shortest round-trip
// form, so 0.301 and 0.304 key apart where their two-decimal String
// labels collide; other configured schemes key by String, the rest by
// Name. Batch grouping and the gateway's routing key both use it.
func SchemeKey(s Scheme) string {
	switch v := s.(type) {
	case interface{ cacheKey() string }:
		return v.cacheKey()
	case fmt.Stringer:
		return v.String()
	}
	return s.Name()
}
