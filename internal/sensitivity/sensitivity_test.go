package sensitivity

import (
	"context"
	"testing"

	"swcc/internal/core"
	"swcc/internal/sweep"
)

func analyzeAll(t *testing.T, nproc int) *Table {
	t.Helper()
	tab, err := AnalyzeWithCtx(context.Background(), sweep.New(0), core.PaperSchemes(), nproc)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestAnalyzeShape(t *testing.T) {
	tab := analyzeAll(t, 16)
	if len(tab.Params) != 11 {
		t.Errorf("params = %d, want 11", len(tab.Params))
	}
	if len(tab.Schemes) != 4 {
		t.Errorf("schemes = %d, want 4", len(tab.Schemes))
	}
	for _, p := range tab.Params {
		for _, s := range tab.Schemes {
			c, ok := tab.Cell(p, s)
			if !ok {
				t.Fatalf("missing cell %s/%s", p, s)
			}
			if c.TimeLow <= 0 || c.TimeHigh <= 0 {
				t.Errorf("%s/%s: non-positive times", p, s)
			}
		}
	}
	if _, ok := tab.Cell("bogus", "Base"); ok {
		t.Error("bogus param should miss")
	}
	if _, ok := tab.Cell("ls", "bogus"); ok {
		t.Error("bogus scheme should miss")
	}
}

func TestAPLDominatesSoftwareFlush(t *testing.T) {
	// Section 4: "For the Software-Flush scheme, apl has a huge
	// effect... The impact of shd is almost as great, and ls is
	// significant as well."
	tab := analyzeAll(t, 16)
	ranked := tab.MostSensitive("Software-Flush")
	if ranked[0].Param != "apl" {
		t.Errorf("Software-Flush most sensitive to %q, want apl (ranking: %v)", ranked[0].Param, names(ranked))
	}
	if ranked[1].Param != "shd" {
		t.Errorf("second most sensitive = %q, want shd", ranked[1].Param)
	}
	aplPct := pct(t, tab, "apl", "Software-Flush")
	if aplPct < 50 {
		t.Errorf("apl effect on Software-Flush = %.1f%%, expected huge (>50%%)", aplPct)
	}
}

func TestSharingDrivesNoCache(t *testing.T) {
	// No-Cache is like Software-Flush "except that apl is not
	// relevant": shd and ls dominate.
	tab := analyzeAll(t, 16)
	if got := pct(t, tab, "apl", "No-Cache"); got != 0 {
		t.Errorf("apl must not affect No-Cache, got %.2f%%", got)
	}
	ranked := tab.MostSensitive("No-Cache")
	if ranked[0].Param != "shd" {
		t.Errorf("No-Cache most sensitive to %q, want shd", ranked[0].Param)
	}
}

func TestDragonMissRateBeatsSharing(t *testing.T) {
	// Section 4: "In the Dragon scheme, the overall hit rate is more
	// important than the level of sharing... because the cost of
	// shared references is relatively low."
	tab := analyzeAll(t, 16)
	if msdat, shd := pct(t, tab, "msdat", "Dragon"), pct(t, tab, "shd", "Dragon"); msdat <= shd {
		t.Errorf("Dragon: msdat effect %.1f%% should exceed shd effect %.1f%%", msdat, shd)
	}
}

func TestBaseIgnoresSharingParams(t *testing.T) {
	tab := analyzeAll(t, 16)
	for _, p := range []string{"shd", "wr", "apl", "mdshd", "oclean", "opres", "nshd"} {
		if got := pct(t, tab, p, "Base"); got != 0 {
			t.Errorf("Base sensitive to %s: %.2f%%", p, got)
		}
	}
	if got := pct(t, tab, "msdat", "Base"); got <= 0 {
		t.Errorf("Base must be sensitive to msdat, got %.2f%%", got)
	}
}

func TestSensitivityGrowsWithContention(t *testing.T) {
	// At one processor there is no contention; the same parameter
	// swing must hurt at least as much on a contended 16-way bus.
	one := analyzeAll(t, 1)
	sixteen := analyzeAll(t, 16)
	for _, scheme := range []string{"No-Cache", "Software-Flush"} {
		p1 := pct2(t, one, "shd", scheme)
		p16 := pct2(t, sixteen, "shd", scheme)
		if p16 < p1 {
			t.Errorf("%s shd effect: 16-proc %.1f%% < 1-proc %.1f%%", scheme, p16, p1)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := AnalyzeWithCtx(context.Background(), sweep.New(0), core.PaperSchemes(), 0); err == nil {
		t.Error("want error for zero processors")
	}
}

func pct(t *testing.T, tab *Table, param, scheme string) float64 {
	t.Helper()
	c, ok := tab.Cell(param, scheme)
	if !ok {
		t.Fatalf("missing cell %s/%s", param, scheme)
	}
	return c.PercentChange
}

func pct2(t *testing.T, tab *Table, param, scheme string) float64 {
	return pct(t, tab, param, scheme)
}

func names(cells []Cell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.Param
	}
	return out
}

// TestAnalyzeWithEngineVariantsIdentical checks every engine
// configuration — sequential, parallel, cached, uncached — produces a
// bit-identical table: parallelism and memoization must never change
// the numbers.
func TestAnalyzeWithEngineVariantsIdentical(t *testing.T) {
	schemes := core.PaperSchemes()
	base, err := AnalyzeWithCtx(context.Background(), &sweep.Engine{Workers: 1}, schemes, 16)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*sweep.Engine{
		"parallel-uncached": {Workers: 8},
		"parallel-cached":   sweep.New(8),
		"sequential-cached": sweep.New(1),
		"default":           sweep.New(0),
	}
	for name, eng := range engines {
		tab, err := AnalyzeWithCtx(context.Background(), eng, schemes, 16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, param := range base.Params {
			for _, scheme := range base.Schemes {
				want, _ := base.Cell(param, scheme)
				got, ok := tab.Cell(param, scheme)
				if !ok || got != want {
					t.Errorf("%s: cell %s/%s = %+v, want %+v", name, param, scheme, got, want)
				}
			}
		}
	}
}
