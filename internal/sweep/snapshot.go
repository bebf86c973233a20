package sweep

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"swcc/internal/core"
	"swcc/internal/queueing"
)

// The snapshot format persists the evaluator's two content-addressed
// memo caches — demand results and MVA curves — so a restarted daemon
// starts warm instead of re-solving its whole working set (the software
// analogue of not flushing every cache on a context switch). Layout:
//
//	magic "SWCCSNP2"
//	fingerprint  (uvarint length + bytes; see ModelFingerprint)
//	demand section: uvarint entry count, then per entry
//	    scheme string, table string, 11 params float64s, 3 demand float64s
//	    (CPU, Interconnect, Priority)
//	curve section: uvarint entry count, then per entry
//	    think, service, prio float64s, uvarint curve length, then per point
//	    uvarint customers + 5 float64s
//	crc32 (IEEE) of everything above, 4 bytes little-endian
//
// Floats are written as their exact IEEE-754 bit patterns, so a restore
// is bit-identical to the cache that was snapshotted. Entries stream
// one shard at a time (sorted within each shard, so equal caches
// produce equal bytes) and restore commits entries as they decode, so
// neither direction ever holds a second full copy of the cache in
// memory. Any decode failure — bad magic, stale fingerprint, truncation,
// checksum mismatch, or an implausible length — fails closed: the
// evaluator is wiped back to a cold cache, never left with a suspect
// entry.

// snapshotMagic identifies the snapshot file format, version included:
// an incompatible layout change must change the magic. SNP2 added the
// demand Priority float and the curve key's prio float.
const snapshotMagic = "SWCCSNP2"

// Snapshot decode sentinels. Both mean "start cold"; they are separate
// so operators can tell a corrupt file (investigate disk/transfer) from
// a stale one (expected after a model-changing deploy).
var (
	// ErrSnapshotFormat reports a snapshot that is not a well-formed
	// snapshot file: wrong magic, truncated, or failing its checksum.
	ErrSnapshotFormat = errors.New("sweep: snapshot corrupt or truncated")
	// ErrSnapshotStale reports a well-formed snapshot whose model
	// fingerprint does not match this build — its cached answers may
	// disagree with the current model, so none of them are loaded.
	ErrSnapshotStale = errors.New("sweep: snapshot from a different model version")
)

// snapshotLimit bounds every length field read from a snapshot before
// allocation, so a corrupt count cannot OOM the restoring process: no
// real string, curve, or section is anywhere near 1<<26.
const snapshotLimit = 1 << 26

// SnapshotCounts reports what a restore (or snapshot) covered.
type SnapshotCounts struct {
	// DemandEntries is the number of demand-cache entries in the
	// snapshot.
	DemandEntries int
	// CurveEntries is the number of MVA-curve entries in the snapshot.
	CurveEntries int
}

// modelFingerprint memoizes ModelFingerprint: the probe solves are pure
// functions of the build, so one computation serves the process.
var modelFingerprint struct {
	once sync.Once
	fp   string
}

// ModelFingerprint returns a string that changes whenever the model
// code would change a cached answer or a cache key, so a snapshot
// written by one build is rejected by any build it could mislead. It is
// behavioral, not declared: the fingerprint hashes the exact float bits
// of probe solves through every layer a cache entry depends on — each
// paper scheme's demand at the Table 7 middle workload under the bus
// cost table, each scheme's canonicalized cache key (so a ParamsUsed
// declaration change invalidates too), and one MVA curve — plus the
// format magic. A refactor that preserves all outputs bit-for-bit keeps
// old snapshots valid, exactly as it keeps old cache entries valid.
func ModelFingerprint() string {
	modelFingerprint.once.Do(func() {
		h := core.HashBytes(core.FNVOffset, snapshotMagic)
		p := core.MiddleParams()
		costs := core.BusCosts()
		// Probe every registered scheme (default instances): registering,
		// removing, or behaviorally changing a protocol invalidates
		// snapshots, exactly as it invalidates cache entries.
		for _, info := range core.RegisteredSchemes() {
			s := info.Scheme
			h = core.KeyOf(s, p).Hash(h)
			d, err := core.ComputeDemand(s, p, costs)
			if err != nil {
				h = core.HashBytes(h, err.Error())
				continue
			}
			h = core.HashFloat(h, d.CPU)
			h = core.HashFloat(h, d.Interconnect)
			h = core.HashFloat(h, d.Priority)
		}
		curve, err := queueing.SingleServerMVA(3.75, 1.25, 8)
		if err == nil {
			for _, r := range curve {
				for _, f := range [...]float64{
					r.Residence, r.Wait, r.Throughput, r.QueueLength, r.Utilization,
				} {
					h = core.HashFloat(h, f)
				}
			}
		}
		prioCurve, err := queueing.PrioritySingleServerMVA(3.75, 0.25, 1.0, 8, nil)
		if err == nil {
			for _, r := range prioCurve {
				for _, f := range [...]float64{
					r.Residence, r.Wait, r.Throughput, r.QueueLength, r.Utilization,
				} {
					h = core.HashFloat(h, f)
				}
			}
		}
		modelFingerprint.fp = fmt.Sprintf("%s:%016x", snapshotMagic, h)
	})
	return modelFingerprint.fp
}

// snapWriter wraps the destination with buffering and a running CRC of
// every byte written, so the trailer can seal the whole stream.
type snapWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
}

func (sw *snapWriter) write(p []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	_, sw.err = sw.w.Write(p)
}

func (sw *snapWriter) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	sw.write(buf[:binary.PutUvarint(buf[:], v)])
}

func (sw *snapWriter) str(s string) {
	sw.uvarint(uint64(len(s)))
	sw.write([]byte(s))
}

func (sw *snapWriter) f64(f float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	sw.write(buf[:])
}

// Snapshot serializes the demand and curve caches to w in the
// version-stamped format above and returns what it wrote. It is safe to
// call on a live evaluator — each shard is read-locked only long enough
// to copy its entry references (values are immutable once published),
// so at no point does the snapshot hold a second copy of more than one
// shard's keys — but entries published while later shards stream are
// not included; snapshot after drain for a complete image.
func (ev *Evaluator) Snapshot(w io.Writer) (SnapshotCounts, error) {
	sw := &snapWriter{w: bufio.NewWriter(w)}
	sw.write([]byte(snapshotMagic))
	sw.str(ModelFingerprint())

	var counts SnapshotCounts
	for i := range ev.demands {
		sh := &ev.demands[i]
		sh.mu.RLock()
		counts.DemandEntries += len(sh.entries)
		sh.mu.RUnlock()
	}
	sw.uvarint(uint64(counts.DemandEntries))
	written := 0
	for i := range ev.demands {
		sh := &ev.demands[i]
		sh.mu.RLock()
		keys := make([]demandKey, 0, len(sh.entries))
		vals := make(map[demandKey]core.Demand, len(sh.entries))
		for k, sl := range sh.entries {
			keys = append(keys, k)
			vals[k] = sl.v
		}
		sh.mu.RUnlock()
		sort.Slice(keys, func(a, b int) bool { return keys[a].less(keys[b]) })
		for _, k := range keys {
			if written >= counts.DemandEntries {
				break // a concurrent publish grew the shard after the count pass
			}
			written++
			d := vals[k]
			sw.str(k.id.Scheme)
			sw.str(k.table)
			for _, f := range k.id.Params.KeyFields() {
				sw.f64(*f)
			}
			sw.f64(d.CPU)
			sw.f64(d.Interconnect)
			sw.f64(d.Priority)
		}
	}
	counts.DemandEntries = written

	curveTotal := 0
	for i := range ev.curves {
		sh := &ev.curves[i]
		sh.mu.RLock()
		curveTotal += len(sh.entries)
		sh.mu.RUnlock()
	}
	sw.uvarint(uint64(curveTotal))
	written = 0
	for i := range ev.curves {
		sh := &ev.curves[i]
		sh.mu.RLock()
		keys := make([]mvaKey, 0, len(sh.entries))
		vals := make(map[mvaKey][]queueing.SingleServerResult, len(sh.entries))
		for k, sl := range sh.entries {
			keys = append(keys, k)
			vals[k] = sl.v // immutable once published; safe to read after unlock
		}
		sh.mu.RUnlock()
		sort.Slice(keys, func(a, b int) bool { return keys[a].less(keys[b]) })
		for _, k := range keys {
			if written >= curveTotal {
				break
			}
			written++
			curve := vals[k]
			sw.f64(k.think)
			sw.f64(k.service)
			sw.f64(k.prio)
			sw.uvarint(uint64(len(curve)))
			for _, r := range curve {
				sw.uvarint(uint64(r.Customers))
				sw.f64(r.Residence)
				sw.f64(r.Wait)
				sw.f64(r.Throughput)
				sw.f64(r.QueueLength)
				sw.f64(r.Utilization)
			}
		}
	}
	counts.CurveEntries = written

	var trail [4]byte
	binary.LittleEndian.PutUint32(trail[:], sw.crc)
	if sw.err == nil {
		_, sw.err = sw.w.Write(trail[:])
	}
	if sw.err == nil {
		sw.err = sw.w.Flush()
	}
	return counts, sw.err
}

// less orders demand keys for deterministic snapshot bytes: two
// evaluators holding the same entries snapshot identically.
func (k demandKey) less(o demandKey) bool {
	if k.id.Scheme != o.id.Scheme {
		return k.id.Scheme < o.id.Scheme
	}
	if k.table != o.table {
		return k.table < o.table
	}
	bf := o.id.Params.KeyFields()
	for i, a := range k.id.Params.KeyFields() {
		if *a != *bf[i] {
			return math.Float64bits(*a) < math.Float64bits(*bf[i])
		}
	}
	return false
}

// less orders curve keys for deterministic snapshot bytes.
func (k mvaKey) less(o mvaKey) bool {
	if k.think != o.think {
		return math.Float64bits(k.think) < math.Float64bits(o.think)
	}
	if k.service != o.service {
		return math.Float64bits(k.service) < math.Float64bits(o.service)
	}
	return math.Float64bits(k.prio) < math.Float64bits(o.prio)
}

// snapReader mirrors snapWriter: buffered reads with a running CRC, so
// the trailer check covers every byte the decoder consumed.
type snapReader struct {
	r   *bufio.Reader
	crc uint32
}

// ReadByte implements io.ByteReader for binary.ReadUvarint.
func (sr *snapReader) ReadByte() (byte, error) {
	b, err := sr.r.ReadByte()
	if err == nil {
		sr.crc = crc32.Update(sr.crc, crc32.IEEETable, []byte{b})
	}
	return b, err
}

func (sr *snapReader) full(p []byte) error {
	if _, err := io.ReadFull(sr.r, p); err != nil {
		return err
	}
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, p)
	return nil
}

func (sr *snapReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(sr)
}

func (sr *snapReader) length() (int, error) {
	n, err := sr.uvarint()
	if err != nil {
		return 0, err
	}
	if n > snapshotLimit {
		return 0, fmt.Errorf("length %d past the sanity bound", n)
	}
	return int(n), nil
}

func (sr *snapReader) str() (string, error) {
	n, err := sr.length()
	if err != nil {
		return "", err
	}
	// Read in bounded chunks instead of trusting n for one allocation:
	// a corrupt length costs only the bytes present.
	var b strings.Builder
	var chunk [256]byte
	for n > 0 {
		c := chunk[:min(n, len(chunk))]
		if err := sr.full(c); err != nil {
			return "", err
		}
		b.Write(c)
		n -= len(c)
	}
	return b.String(), nil
}

func (sr *snapReader) f64() (float64, error) {
	var buf [8]byte
	if err := sr.full(buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// RestoreSnapshot loads a snapshot written by Snapshot into the
// evaluator, merging entries into the (typically empty) caches, and
// returns how many of each it loaded. Restore before the evaluator sees
// traffic. On any failure the evaluator is wiped back to a completely
// cold cache and the error reports why: ErrSnapshotStale when the
// snapshot's model fingerprint does not match this build,
// ErrSnapshotFormat (wrapping detail) for corruption or truncation —
// in every failure mode the evaluator re-solves from scratch rather
// than risk serving a wrong cached answer. Entries commit as they
// stream, so restoring a large snapshot never doubles resident memory.
func (ev *Evaluator) RestoreSnapshot(r io.Reader) (SnapshotCounts, error) {
	counts, err := ev.restore(r)
	if err != nil {
		ev.wipe()
		return SnapshotCounts{}, err
	}
	return counts, nil
}

// restore is RestoreSnapshot without the fail-closed wipe.
func (ev *Evaluator) restore(r io.Reader) (SnapshotCounts, error) {
	sr := &snapReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(snapshotMagic))
	if err := sr.full(magic); err != nil {
		return SnapshotCounts{}, fmt.Errorf("%w: reading magic: %v", ErrSnapshotFormat, err)
	}
	if string(magic) != snapshotMagic {
		return SnapshotCounts{}, fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, magic)
	}
	fp, err := sr.str()
	if err != nil {
		return SnapshotCounts{}, fmt.Errorf("%w: reading fingerprint: %v", ErrSnapshotFormat, err)
	}
	if fp != ModelFingerprint() {
		return SnapshotCounts{}, fmt.Errorf("%w: snapshot %q, build %q", ErrSnapshotStale, fp, ModelFingerprint())
	}

	var counts SnapshotCounts
	nDemand, err := sr.length()
	if err != nil {
		return SnapshotCounts{}, fmt.Errorf("%w: demand count: %v", ErrSnapshotFormat, err)
	}
	for i := 0; i < nDemand; i++ {
		var k demandKey
		if k.id.Scheme, err = sr.str(); err != nil {
			return SnapshotCounts{}, fmt.Errorf("%w: demand[%d] scheme: %v", ErrSnapshotFormat, i, err)
		}
		if k.table, err = sr.str(); err != nil {
			return SnapshotCounts{}, fmt.Errorf("%w: demand[%d] table: %v", ErrSnapshotFormat, i, err)
		}
		if !core.RegisteredLabel(k.id.Scheme) {
			// A snapshot naming a scheme this build does not register
			// could only have come from a different (or tampered) model:
			// fail closed rather than carry entries nothing can read.
			return SnapshotCounts{}, fmt.Errorf("%w: demand[%d] references unregistered scheme %q", ErrSnapshotStale, i, k.id.Scheme)
		}
		var d core.Demand
		kf := k.id.Params.KeyFields()
		for _, dst := range append(kf[:], &d.CPU, &d.Interconnect, &d.Priority) {
			if *dst, err = sr.f64(); err != nil {
				return SnapshotCounts{}, fmt.Errorf("%w: demand[%d] floats: %v", ErrSnapshotFormat, i, err)
			}
		}
		sh := &ev.demands[k.shard()]
		sh.mu.Lock()
		if sh.put(k, d, ev.shardCap) {
			ev.demandEvictions.Add(1)
		}
		sh.mu.Unlock()
		counts.DemandEntries++
	}

	nCurves, err := sr.length()
	if err != nil {
		return SnapshotCounts{}, fmt.Errorf("%w: curve count: %v", ErrSnapshotFormat, err)
	}
	for i := 0; i < nCurves; i++ {
		var k mvaKey
		if k.think, err = sr.f64(); err != nil {
			return SnapshotCounts{}, fmt.Errorf("%w: curve[%d] think: %v", ErrSnapshotFormat, i, err)
		}
		if k.service, err = sr.f64(); err != nil {
			return SnapshotCounts{}, fmt.Errorf("%w: curve[%d] service: %v", ErrSnapshotFormat, i, err)
		}
		if k.prio, err = sr.f64(); err != nil {
			return SnapshotCounts{}, fmt.Errorf("%w: curve[%d] prio: %v", ErrSnapshotFormat, i, err)
		}
		n, err := sr.length()
		if err != nil {
			return SnapshotCounts{}, fmt.Errorf("%w: curve[%d] length: %v", ErrSnapshotFormat, i, err)
		}
		// The curve grows as its points decode instead of trusting n for
		// one allocation: a corrupt length costs only the bytes present.
		// Curves longer than the first chunk are trimmed to len == cap
		// before they are cached.
		curve := make([]queueing.SingleServerResult, 0, min(n, 1024))
		for j := 0; j < n; j++ {
			var r queueing.SingleServerResult
			cust, err := sr.uvarint()
			if err != nil || cust > snapshotLimit {
				return SnapshotCounts{}, fmt.Errorf("%w: curve[%d][%d] customers: %v", ErrSnapshotFormat, i, j, err)
			}
			r.Customers = int(cust)
			for _, dst := range [...]*float64{&r.Residence, &r.Wait, &r.Throughput, &r.QueueLength, &r.Utilization} {
				if *dst, err = sr.f64(); err != nil {
					return SnapshotCounts{}, fmt.Errorf("%w: curve[%d][%d] floats: %v", ErrSnapshotFormat, i, j, err)
				}
			}
			curve = append(curve, r)
		}
		if cap(curve) > n {
			curve = append(make([]queueing.SingleServerResult, 0, n), curve...)
		}
		sh := &ev.curves[k.shard()]
		sh.mu.Lock()
		if sl, ok := sh.entries[k]; !ok || len(sl.v) < len(curve) {
			if sh.put(k, curve, ev.shardCap) {
				ev.curveEvictions.Add(1)
			}
		}
		sh.mu.Unlock()
		counts.CurveEntries++
	}

	want := sr.crc
	var trail [4]byte
	if _, err := io.ReadFull(sr.r, trail[:]); err != nil {
		return SnapshotCounts{}, fmt.Errorf("%w: reading checksum: %v", ErrSnapshotFormat, err)
	}
	if got := binary.LittleEndian.Uint32(trail[:]); got != want {
		return SnapshotCounts{}, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrSnapshotFormat, got, want)
	}
	return counts, nil
}

// wipe resets both caches to empty — the fail-closed landing state for
// a restore that went wrong partway through committing entries.
func (ev *Evaluator) wipe() {
	for i := range ev.demands {
		sh := &ev.demands[i]
		sh.mu.Lock()
		sh.entries = map[demandKey]*slot[core.Demand]{}
		sh.ring = nil
		sh.hand = 0
		sh.mu.Unlock()
	}
	for i := range ev.curves {
		sh := &ev.curves[i]
		sh.mu.Lock()
		sh.entries = map[mvaKey]*slot[[]queueing.SingleServerResult]{}
		sh.ring = nil
		sh.hand = 0
		sh.mu.Unlock()
	}
}

// WriteSnapshotFile snapshots the evaluator to path atomically: the
// bytes land in a temp file in the same directory, are synced, and only
// then renamed over path, so a crash mid-write can never leave a
// half-written file where the next boot will look for a snapshot.
func (ev *Evaluator) WriteSnapshotFile(path string) (SnapshotCounts, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return SnapshotCounts{}, err
	}
	tmp := f.Name()
	counts, err := ev.Snapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return SnapshotCounts{}, err
	}
	return counts, nil
}

// LoadSnapshotFile restores the evaluator from a snapshot file. A
// missing file is not an error — it returns zero counts and nil, the
// normal cold first boot — while a present-but-unusable file fails
// exactly as RestoreSnapshot does, leaving the cache cold.
func (ev *Evaluator) LoadSnapshotFile(path string) (SnapshotCounts, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return SnapshotCounts{}, nil
		}
		return SnapshotCounts{}, err
	}
	defer f.Close()
	return ev.RestoreSnapshot(f)
}
