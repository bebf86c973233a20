// Package trace defines the multiprocessor address-trace representation
// shared by the synthetic workload generator (internal/tracegen), the
// trace-driven simulator (internal/sim), and the parameter-extraction
// code (internal/measure).
//
// A trace is an interleaved sequence of per-processor memory references,
// the same shape as the ATUM-2 traces the paper used for validation. In
// addition to instruction fetches, loads, and stores, a trace may carry
// explicit Flush records so Software-Flush executions can be replayed.
//
// Each reference is a Ref: processor, kind, shared flag and a byte
// address of at most MaxAddr (2^53 - 1), packed into one 8-byte word,
// so a trace of n references holds 8n bytes. NewRef builds one; the
// binary and text readers reject an address above MaxAddr with
// ErrBadTrace.
package trace

import (
	"errors"
	"fmt"
)

// Kind classifies one trace record.
type Kind uint8

// Record kinds.
const (
	// IFetch is an instruction fetch.
	IFetch Kind = iota
	// Read is a data load.
	Read
	// Write is a data store.
	Write
	// Flush is a software flush instruction naming the block to purge.
	Flush

	numKinds
)

var kindNames = [numKinds]string{"ifetch", "read", "write", "flush"}

// String returns "ifetch", "read", "write", or "flush".
func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// IsData reports whether the record is a load or store.
func (k Kind) IsData() bool { return k == Read || k == Write }

// Ref is one memory reference by one processor, packed into one word
// so a record is 8 bytes:
//
//	bits 0-1   kind
//	bit  2     shared flag
//	bits 3-10  cpu
//	bits 11-63 byte address (at most MaxAddr)
//
// A two-bit kind cannot name anything but the four record kinds. Build
// records with NewRef and read them with the accessors.
type Ref uint64

// MaxAddr is the largest byte address a Ref holds: 53 bits.
const MaxAddr = 1<<53 - 1

const (
	refKindMask  = 0x3
	refSharedBit = 1 << 2
	refCPUShift  = 3
	refAddrShift = 11
)

// NewRef packs one record, keeping kind's low two bits. An address
// above MaxAddr is a caller bug and panics; readers of untrusted input
// check the bound first.
func NewRef(cpu uint8, kind Kind, addr uint64, shared bool) Ref {
	if addr > MaxAddr {
		panic(fmt.Sprintf("trace: address %#x exceeds MaxAddr", addr))
	}
	r := Ref(addr<<refAddrShift | uint64(cpu)<<refCPUShift | uint64(kind&refKindMask))
	if shared {
		r |= refSharedBit
	}
	return r
}

// Addr returns the byte address.
func (r Ref) Addr() uint64 { return uint64(r) >> refAddrShift }

// CPU returns the issuing processor, 0-based.
func (r Ref) CPU() uint8 { return uint8(r >> refCPUShift) }

// Kind classifies the reference.
func (r Ref) Kind() Kind { return Kind(r & refKindMask) }

// Shared reports whether the compiler/programmer designated the
// reference as shared (drives the software schemes; ignored by hardware
// ones).
func (r Ref) Shared() bool { return r&refSharedBit != 0 }

// String prints the record's fields.
func (r Ref) String() string {
	s := fmt.Sprintf("{cpu %d %s %#x", r.CPU(), r.Kind(), r.Addr())
	if r.Shared() {
		s += " shared"
	}
	return s + "}"
}

// Trace is a fully materialized interleaved trace.
type Trace struct {
	// NCPU is the number of processors issuing references.
	NCPU int
	// Refs is the interleaved reference stream in global time order.
	Refs []Ref
}

// MaxNCPU is the most processors a trace can name: a record's CPU is
// one byte.
const MaxNCPU = 256

// ErrBadTrace reports a malformed trace or record.
var ErrBadTrace = errors.New("trace: malformed trace")

// Validate checks that NCPU is in range and every record's CPU lies
// below it.
func (t *Trace) Validate() error {
	if t.NCPU < 1 || t.NCPU > MaxNCPU {
		return fmt.Errorf("%w: ncpu %d", ErrBadTrace, t.NCPU)
	}
	for i, r := range t.Refs {
		if int(r.CPU()) >= t.NCPU {
			return fmt.Errorf("%w: ref %d cpu %d >= ncpu %d", ErrBadTrace, i, r.CPU(), t.NCPU)
		}
	}
	return nil
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Refs) }

// Restrict returns a new trace containing only the references of the
// first ncpu processors, preserving order. It models running the same
// per-processor workloads on a smaller machine, which is how the
// validation experiments sweep 1..N processors from one trace.
func (t *Trace) Restrict(ncpu int) *Trace {
	if ncpu >= t.NCPU {
		return t
	}
	out := &Trace{NCPU: ncpu, Refs: make([]Ref, 0, t.RestrictedLen(ncpu))}
	for _, r := range t.Refs {
		if int(r.CPU()) < ncpu {
			out.Refs = append(out.Refs, r)
		}
	}
	return out
}

// RestrictedLen returns the number of records of the first ncpu
// processors: len(t.Restrict(ncpu).Refs) without the copy.
func (t *Trace) RestrictedLen(ncpu int) int {
	n := 0
	for _, r := range t.Refs {
		if int(r.CPU()) < ncpu {
			n++
		}
	}
	return n
}

// Interleave merges per-processor streams round-robin, one reference per
// processor per turn, mirroring how multiprocessor tracers interleave
// streams. Streams may have different lengths; exhausted streams drop out.
func Interleave(streams [][]Ref) *Trace {
	t := &Trace{NCPU: len(streams)}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	t.Refs = make([]Ref, 0, total)
	idx := make([]int, len(streams))
	for remaining := total; remaining > 0; {
		for c, s := range streams {
			if idx[c] < len(s) {
				t.Refs = append(t.Refs, s[idx[c]])
				idx[c]++
				remaining--
			}
		}
	}
	return t
}

// Stats summarizes a trace's composition.
type Stats struct {
	// NCPU is the processor count.
	NCPU int
	// Total is the record count.
	Total int
	// ByKind counts records per kind.
	ByKind [4]int
	// ByCPU counts records per processor.
	ByCPU []int
	// SharedData counts data references flagged Shared.
	SharedData int
	// UniqueBlocks is the number of distinct blocks touched, for the
	// given block size in bytes.
	UniqueBlocks int
	// BlockSize is the block size UniqueBlocks was computed with.
	BlockSize int
}

// ComputeStats scans the trace once and summarizes it. blockSize must be a
// power of two.
func ComputeStats(t *Trace, blockSize int) (Stats, error) {
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		return Stats{}, fmt.Errorf("%w: block size %d not a power of two", ErrBadTrace, blockSize)
	}
	if err := t.Validate(); err != nil {
		return Stats{}, err
	}
	s := Stats{NCPU: t.NCPU, Total: len(t.Refs), ByCPU: make([]int, t.NCPU), BlockSize: blockSize}
	blocks := make(map[uint64]struct{})
	shift := 0
	for 1<<shift < blockSize {
		shift++
	}
	for _, r := range t.Refs {
		s.ByKind[r.Kind()]++
		s.ByCPU[r.CPU()]++
		if r.Kind().IsData() && r.Shared() {
			s.SharedData++
		}
		blocks[r.Addr()>>shift] = struct{}{}
	}
	s.UniqueBlocks = len(blocks)
	return s, nil
}

// LoadStoreFraction returns the ls workload parameter implied by the
// stats: data references per instruction (flushes are excluded from the
// instruction base, matching the paper's per-non-flush-instruction
// accounting).
func (s Stats) LoadStoreFraction() float64 {
	instr := s.ByKind[IFetch]
	if instr == 0 {
		return 0
	}
	return float64(s.ByKind[Read]+s.ByKind[Write]) / float64(instr)
}

// SharedFraction returns the shd parameter implied by the stats: the
// fraction of data references marked shared.
func (s Stats) SharedFraction() float64 {
	data := s.ByKind[Read] + s.ByKind[Write]
	if data == 0 {
		return 0
	}
	return float64(s.SharedData) / float64(data)
}

// WriteFraction returns the wr parameter restricted to data references:
// stores over loads+stores.
func (s Stats) WriteFraction() float64 {
	data := s.ByKind[Read] + s.ByKind[Write]
	if data == 0 {
		return 0
	}
	return float64(s.ByKind[Write]) / float64(data)
}
