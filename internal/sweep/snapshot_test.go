package sweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swcc/internal/core"
)

// populateEvaluator drives the evaluator through the public API with a
// varied working set — every paper scheme plus directory and hybrid, a
// spread of sharing levels, several curve lengths — so the caches hold
// a realistic mixture of demand entries and MVA curves of different
// sizes.
func populateEvaluator(t testing.TB, ev *Evaluator) {
	t.Helper()
	costs := core.BusCosts()
	schemes := append(core.PaperSchemes(), core.Directory{}, core.Hybrid{LockFrac: 0.3})
	for si, s := range schemes {
		for pi, shd := range []float64{0.2, 0.5, 0.8} {
			p := core.MiddleParams()
			p.Shd = shd
			maxProcs := 4 + 4*((si+pi)%3)
			if _, err := ev.EvaluateBusCtx(context.Background(), s, p, costs, maxProcs, nil); err != nil {
				t.Fatalf("EvaluateBus(%v, shd=%g): %v", s.Name(), shd, err)
			}
		}
	}
}

// snapshotBytes snapshots ev into memory and fails the test on error.
func snapshotBytes(t testing.TB, ev *Evaluator) ([]byte, SnapshotCounts) {
	t.Helper()
	var buf bytes.Buffer
	counts, err := ev.Snapshot(&buf)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes(), counts
}

// TestSnapshotRoundTrip is the core property test: restoring a snapshot
// into a fresh evaluator reproduces the cache bit-for-bit (re-snapshot
// is byte-identical), and the restored evaluator serves the same
// working set entirely from cache — not one full MVA solve, not one
// demand solve.
func TestSnapshotRoundTrip(t *testing.T) {
	ev := NewEvaluator()
	populateEvaluator(t, ev)
	before := ev.Stats()
	if before.DemandEntries == 0 || before.CurveEntries == 0 {
		t.Fatalf("population left caches empty: %+v", before)
	}

	snap, counts := snapshotBytes(t, ev)
	if counts.DemandEntries != before.DemandEntries || counts.CurveEntries != before.CurveEntries {
		t.Fatalf("snapshot counts %+v, evaluator holds %d demand / %d curves",
			counts, before.DemandEntries, before.CurveEntries)
	}

	fresh := NewEvaluator()
	restored, err := fresh.RestoreSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if restored != counts {
		t.Fatalf("restored %+v, snapshot held %+v", restored, counts)
	}

	// Bit-identity: the restored cache snapshots to the same bytes.
	resnap, _ := snapshotBytes(t, fresh)
	if !bytes.Equal(snap, resnap) {
		t.Fatalf("restore(snapshot(E)) is not byte-identical: %d vs %d bytes", len(snap), len(resnap))
	}

	// Warm service: replaying the exact working set must be all hits.
	populateEvaluator(t, fresh)
	st := fresh.Stats()
	if st.CurveFullSolves != 0 {
		t.Fatalf("restored evaluator did %d full MVA solves on a warm working set", st.CurveFullSolves)
	}
	if st.DemandSolves != 0 {
		t.Fatalf("restored evaluator did %d demand solves on a warm working set", st.DemandSolves)
	}
	if st.DemandHits == 0 || st.MVAHits == 0 {
		t.Fatalf("warm replay recorded no hits: %+v", st)
	}

	// And the answers match the original evaluator bit-for-bit.
	costs := core.BusCosts()
	p := core.MiddleParams()
	p.Shd = 0.5
	for _, s := range append(core.PaperSchemes(), core.Directory{}, core.Hybrid{LockFrac: 0.3}) {
		want, err := ev.EvaluateBusCtx(context.Background(), s, p, costs, 8, nil)
		if err != nil {
			t.Fatalf("EvaluateBus original: %v", err)
		}
		got, err := fresh.EvaluateBusCtx(context.Background(), s, p, costs, 8, nil)
		if err != nil {
			t.Fatalf("EvaluateBus restored: %v", err)
		}
		for i := range want {
			if math.Float64bits(want[i].Power) != math.Float64bits(got[i].Power) ||
				math.Float64bits(want[i].Wait) != math.Float64bits(got[i].Wait) {
				t.Fatalf("%s point %d differs after restore: %+v vs %+v", s.Name(), i, want[i], got[i])
			}
		}
	}
}

// TestSnapshotDeterministic pins that two snapshots of the same live
// cache are byte-identical — the property the round-trip test's
// byte-comparison leans on.
func TestSnapshotDeterministic(t *testing.T) {
	ev := NewEvaluator()
	populateEvaluator(t, ev)
	a, _ := snapshotBytes(t, ev)
	b, _ := snapshotBytes(t, ev)
	if !bytes.Equal(a, b) {
		t.Fatal("two snapshots of the same cache differ")
	}
}

// TestSnapshotFailClosed feeds RestoreSnapshot corrupted, truncated,
// and stale-fingerprint inputs; every one must leave the evaluator
// completely cold (fail closed), never partially restored.
func TestSnapshotFailClosed(t *testing.T) {
	ev := NewEvaluator()
	populateEvaluator(t, ev)
	snap, _ := snapshotBytes(t, ev)

	assertCold := func(t *testing.T, ev *Evaluator) {
		t.Helper()
		st := ev.Stats()
		if st.DemandEntries != 0 || st.CurveEntries != 0 {
			t.Fatalf("evaluator not cold after failed restore: %d demand / %d curves",
				st.DemandEntries, st.CurveEntries)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		for _, frac := range []float64{0.1, 0.5, 0.95} {
			cut := snap[:int(float64(len(snap))*frac)]
			fresh := NewEvaluator()
			if _, err := fresh.RestoreSnapshot(bytes.NewReader(cut)); err == nil {
				t.Fatalf("truncation at %.0f%% accepted", frac*100)
			}
			assertCold(t, fresh)
		}
	})

	t.Run("missing-checksum", func(t *testing.T) {
		fresh := NewEvaluator()
		_, err := fresh.RestoreSnapshot(bytes.NewReader(snap[:len(snap)-1]))
		if err == nil {
			t.Fatal("snapshot missing its checksum trailer accepted")
		}
		assertCold(t, fresh)
	})

	t.Run("corrupted", func(t *testing.T) {
		// Flip one byte at a spread of offsets past the header; every
		// flip must be caught (by a decode error or the checksum) and
		// must not leave entries behind.
		for _, off := range []int{len(snap) / 4, len(snap) / 2, len(snap) - 10} {
			bad := append([]byte(nil), snap...)
			bad[off] ^= 0x40
			fresh := NewEvaluator()
			if _, err := fresh.RestoreSnapshot(bytes.NewReader(bad)); err == nil {
				t.Fatalf("byte flip at offset %d accepted", off)
			}
			assertCold(t, fresh)
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[0] ^= 0xFF
		fresh := NewEvaluator()
		if _, err := fresh.RestoreSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("bad magic accepted")
		}
		assertCold(t, fresh)
	})

	t.Run("stale-fingerprint", func(t *testing.T) {
		// The fingerprint string sits right after the 8-byte magic and
		// a 1-byte uvarint length; flipping a byte inside it simulates
		// a snapshot from a different model build.
		bad := append([]byte(nil), snap...)
		bad[len(snapshotMagic)+2] ^= 0x01
		fresh := NewEvaluator()
		_, err := fresh.RestoreSnapshot(bytes.NewReader(bad))
		if err == nil {
			t.Fatal("stale fingerprint accepted")
		}
		assertCold(t, fresh)
	})

	t.Run("empty", func(t *testing.T) {
		fresh := NewEvaluator()
		if _, err := fresh.RestoreSnapshot(bytes.NewReader(nil)); err == nil {
			t.Fatal("empty input accepted")
		}
		assertCold(t, fresh)
	})
}

// TestSnapshotFileLifecycle covers the file helpers: atomic write +
// load round-trip, a missing file reading as a silent cold boot, and
// no leftover temp files after a successful write.
func TestSnapshotFileLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "memo.snap")

	ev := NewEvaluator()
	populateEvaluator(t, ev)
	wrote, err := ev.WriteSnapshotFile(path)
	if err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	if wrote.DemandEntries == 0 || wrote.CurveEntries == 0 {
		t.Fatalf("wrote empty snapshot: %+v", wrote)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind", e.Name())
		}
	}

	fresh := NewEvaluator()
	loaded, err := fresh.LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	if loaded != wrote {
		t.Fatalf("loaded %+v, wrote %+v", loaded, wrote)
	}

	cold := NewEvaluator()
	counts, err := cold.LoadSnapshotFile(filepath.Join(dir, "absent.snap"))
	if err != nil {
		t.Fatalf("missing snapshot file should be a silent cold boot, got %v", err)
	}
	if counts != (SnapshotCounts{}) {
		t.Fatalf("missing file loaded entries: %+v", counts)
	}
}

// TestSnapshotRestoreCapped pins that restoring into a capacity-capped
// evaluator respects the cap: the CLOCK ring stays consistent and the
// shard never exceeds its limit.
func TestSnapshotRestoreCapped(t *testing.T) {
	ev := NewEvaluator()
	populateEvaluator(t, ev)
	snap, _ := snapshotBytes(t, ev)

	capped := NewEvaluatorCap(numShards * 2) // 2 entries per shard
	if _, err := capped.RestoreSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatalf("RestoreSnapshot into capped evaluator: %v", err)
	}
	d, c := capped.ShardSizes()
	for i := range d {
		if d[i] > 2 || c[i] > 2 {
			t.Fatalf("shard %d over cap after restore: demand %d, curves %d", i, d[i], c[i])
		}
	}
	// The capped evaluator must still answer correctly.
	if _, err := capped.EvaluateBusCtx(context.Background(), core.PaperSchemes()[0], core.MiddleParams(), core.BusCosts(), 4, nil); err != nil {
		t.Fatalf("capped evaluator broken after restore: %v", err)
	}
}

// TestModelFingerprintStable pins that the fingerprint is deterministic
// within a process and carries the format version.
func TestModelFingerprintStable(t *testing.T) {
	a, b := ModelFingerprint(), ModelFingerprint()
	if a != b || a == "" {
		t.Fatalf("fingerprint unstable: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, snapshotMagic) {
		t.Fatalf("fingerprint %q does not carry the format version", a)
	}
}

// fireflyScheme is a deliberately unregistered scheme: structurally
// valid (OpInstr present) but unknown to the core registry.
type fireflyScheme struct{}

func (fireflyScheme) Name() string { return "Firefly" }
func (fireflyScheme) Frequencies(p core.Params) ([]core.OpFreq, error) {
	return []core.OpFreq{
		{Op: core.OpInstr, Freq: 1},
		{Op: core.OpCleanMissMem, Freq: p.MsDat * p.LS},
	}, nil
}

// TestSnapshotRejectsUnregisteredScheme: a snapshot holding cache
// entries for a scheme this binary's registry does not know must fail
// closed with ErrSnapshotStale — restoring it would let lookups under
// a future (or vanished third-party) scheme name alias into entries
// whose provenance cannot be checked.
func TestSnapshotRejectsUnregisteredScheme(t *testing.T) {
	ev := NewEvaluator()
	populateEvaluator(t, ev)
	if _, err := ev.EvaluateBusCtx(context.Background(), fireflyScheme{}, core.MiddleParams(), core.BusCosts(), 8, nil); err != nil {
		t.Fatal(err)
	}
	snap, _ := snapshotBytes(t, ev)

	fresh := NewEvaluator()
	_, err := fresh.RestoreSnapshot(bytes.NewReader(snap))
	if !errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("restore of unregistered-scheme snapshot: err = %v, want ErrSnapshotStale", err)
	}
	if !strings.Contains(err.Error(), "Firefly") {
		t.Errorf("error %q does not name the offending scheme", err)
	}
	if st := fresh.Stats(); st.DemandEntries != 0 || st.CurveEntries != 0 {
		t.Fatalf("evaluator not cold after rejected restore: %d demand / %d curves",
			st.DemandEntries, st.CurveEntries)
	}
}

// FuzzRestoreSnapshot mutates snapshot bodies and seals each with a
// freshly computed CRC32 trailer, so mutations reach the structural
// decoder instead of stopping at the checksum. Every input must either
// fail closed — ErrSnapshotFormat or ErrSnapshotStale, with both caches
// empty — or restore to a fixed point: snapshot, restore into a fresh
// evaluator, and snapshot again give identical bytes.
func FuzzRestoreSnapshot(f *testing.F) {
	for _, capacity := range []int{0, 2 * numShards} {
		ev := NewEvaluatorCap(capacity)
		populateEvaluator(f, ev)
		snap, _ := snapshotBytes(f, ev)
		f.Add(snap[:len(snap)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sealed := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		ev := NewEvaluator()
		if _, err := ev.RestoreSnapshot(bytes.NewReader(sealed)); err != nil {
			if !errors.Is(err, ErrSnapshotFormat) && !errors.Is(err, ErrSnapshotStale) {
				t.Fatalf("restore failed with an unclassified error: %v", err)
			}
			if st := ev.Stats(); st.DemandEntries != 0 || st.CurveEntries != 0 {
				t.Fatalf("failed restore left %d demand and %d curve entries", st.DemandEntries, st.CurveEntries)
			}
			return
		}
		first, _ := snapshotBytes(t, ev)
		fresh := NewEvaluator()
		if _, err := fresh.RestoreSnapshot(bytes.NewReader(first)); err != nil {
			t.Fatalf("restoring a re-snapshot: %v", err)
		}
		if second, _ := snapshotBytes(t, fresh); !bytes.Equal(first, second) {
			t.Fatalf("restore is not a fixed point: re-snapshots differ (%d vs %d bytes)", len(first), len(second))
		}
	})
}
