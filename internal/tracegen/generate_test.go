package tracegen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"swcc/internal/trace"
)

// interleaveReference builds cfg's trace the straightforward way: each
// processor's whole stream on its own, then trace.Interleave.
func interleaveReference(cfg Config) *trace.Trace {
	streams := make([][]trace.Ref, cfg.NCPU)
	for c := range streams {
		var st cpuState
		st.init(&cfg, c)
		for r, ok := st.next(); ok; r, ok = st.next() {
			streams[c] = append(streams[c], r)
		}
	}
	return trace.Interleave(streams)
}

// generateCases covers every preset at a reduced length, machine sizes
// 1, 3 and 16, flush records off, and workload phases on.
func generateCases(t *testing.T) []Config {
	t.Helper()
	var cfgs []Config
	for _, name := range PresetNames() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.InstrPerCPU = 5000
		cfgs = append(cfgs, cfg)
	}
	for _, ncpu := range []int{1, 3, 16} {
		cfg := smallConfig()
		cfg.Name = fmt.Sprintf("default-%d", ncpu)
		cfg.NCPU, cfg.InstrPerCPU = ncpu, 3000
		cfgs = append(cfgs, cfg)
	}
	noFlush := smallConfig()
	noFlush.Name, noFlush.EmitFlush = "noflush", false
	phases := smallConfig()
	phases.Name, phases.PhaseLen = "phases", 400
	return append(cfgs, noFlush, phases)
}

// TestGenerateMatchesInterleave: stepping the processors' generators in
// turn into one buffer writes exactly the trace that interleaving their
// separately generated streams does, and a machine of n processors
// generates the first n processors of a larger one.
func TestGenerateMatchesInterleave(t *testing.T) {
	for _, cfg := range generateCases(t) {
		got, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := interleaveReference(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Generate (%d records) differs from the interleaved streams (%d records)",
				cfg.Name, len(got.Refs), len(want.Refs))
		}
		for _, n := range []int{1, 2} {
			if n >= cfg.NCPU {
				continue
			}
			small := cfg
			small.NCPU = n
			sub, err := Generate(small)
			if err != nil {
				t.Fatal(err)
			}
			if want := got.Restrict(n); !reflect.DeepEqual(sub.Refs, want.Refs) || sub.NCPU != n {
				t.Errorf("%s: the %d-processor trace differs from the %d-processor one restricted", cfg.Name, n, cfg.NCPU)
			}
		}
	}
}

// TestGeneratePin pins every preset's full-length trace by the SHA-256
// of its binary encoding, so a change to the generator that claims to
// be output-preserving must reproduce every record bit for bit.
func TestGeneratePin(t *testing.T) {
	want := map[string]string{
		"message":   "f58d4e11a1e5bd3c37a450b45e8a7ba929989adec56e53c1438ca544a5a9b2c3",
		"pero":      "5c380ea4ab55a51a4a2c51d83b27bb27baad0083d3ca78488f77dd041e4b4498",
		"pero8":     "218a5021211691a3f2f87de3d570b643374d1b4526c9206268c4f64534a90a2e",
		"pops":      "185f248be310d0da78239f6125fa546496633ec257440bd5c12683aa41ff62e9",
		"thor":      "e7dbc34bf051ee9b6032be5041def97b54836e8505bef993bb9db61a9b023871",
		"timeshare": "77946a1c5c0f4a11b03c5b8109e2e62c82dedbde09eb697d7e0995346609ad98",
	}
	for _, name := range PresetNames() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := trace.WriteTrace(h, tr); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: trace digest %s, want %s", name, got, want[name])
		}
	}
}
