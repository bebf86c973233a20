package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestSchemeNamesPinned pins the sorted canonical name list. A new
// registration must update this test (and SCHEMES.md, which the drift
// test ties to the same source of truth).
func TestSchemeNamesPinned(t *testing.T) {
	want := []string{
		"Base",
		"Directory",
		"Dragon",
		"Hybrid",
		"Hybrid-Update",
		"No-Cache",
		"Software-Flush",
		"Software-Flush+Prio",
		"Write-Invalidate",
	}
	if got := SchemeNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("SchemeNames() = %v, want %v", got, want)
	}
}

// TestRegistryDuplicateRegistrationPanics: a scheme table listing a
// name or alias twice, or a nil or unnamed scheme, must fail loudly when
// indexed, never shadow an entry.
func TestRegistryDuplicateRegistrationPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		infos []Info
	}{
		{"duplicate canonical name", []Info{{Scheme: Base{}, Aliases: []string{"base"}}, {Scheme: Base{}}}},
		{"alias colliding with a canonical name", []Info{{Scheme: Base{}}, {Scheme: Dragon{}, Aliases: []string{"Base"}}}},
		{"duplicate alias", []Info{{Scheme: Base{}, Aliases: []string{"base"}}, {Scheme: Dragon{}, Aliases: []string{"base"}}}},
		{"alias repeated within one entry", []Info{{Scheme: Base{}, Aliases: []string{"base", "base"}}}},
		{"nil scheme", []Info{{}}},
		{"unnamed scheme", []Info{{Scheme: unnamed{}}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", tc.name)
				}
			}()
			index(tc.infos)
		}()
	}
}

// unnamed is a scheme whose Name is empty.
type unnamed struct{ Base }

func (unnamed) Name() string { return "" }

// TestRegistryLookupAliases: every registered alias resolves to the
// same entry as its canonical name, and lookups are case-sensitive
// (matching the pre-registry SchemeByName contract).
func TestRegistryLookupAliases(t *testing.T) {
	for _, tc := range []struct{ alias, canonical string }{
		{"base", "Base"},
		{"dragon", "Dragon"},
		{"swflush", "Software-Flush"},
		{"flush", "Software-Flush"},
		{"nocache", "No-Cache"},
		{"no-cache", "No-Cache"},
		{"directory", "Directory"},
		{"hybrid", "Hybrid"},
		{"winv", "Write-Invalidate"},
		{"wi", "Write-Invalidate"},
		{"mesi", "Write-Invalidate"},
		{"hybrid-update", "Hybrid-Update"},
		{"competitive", "Hybrid-Update"},
		{"swflush-prio", "Software-Flush+Prio"},
		{"priority", "Software-Flush+Prio"},
	} {
		info, ok := SchemeInfoByName(tc.alias)
		if !ok {
			t.Errorf("alias %q not registered", tc.alias)
			continue
		}
		if got := info.Scheme.Name(); got != tc.canonical {
			t.Errorf("alias %q -> %q, want %q", tc.alias, got, tc.canonical)
		}
	}
	if _, ok := SchemeInfoByName("SWFLUSH"); ok {
		t.Error("lookup is not case-sensitive")
	}
}

// TestSchemeByNameErrorListsValidNames: the unknown-name error must
// enumerate the registry's canonical names, so the hint can never go
// stale the way a hardcoded list would.
func TestSchemeByNameErrorListsValidNames(t *testing.T) {
	_, err := SchemeByName("firefly")
	if err == nil {
		t.Fatal("want error for unknown scheme")
	}
	for _, name := range SchemeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered scheme %q", err, name)
		}
	}
}

// TestCanonicalFingerprintsPairwiseDistinct: every registered scheme
// must produce a distinct cache identity, KeyOf, from which batch
// grouping and the gateway's routing key are built. A collision would
// silently serve one scheme's results for another.
func TestCanonicalFingerprintsPairwiseDistinct(t *testing.T) {
	p := MiddleParams()
	seen := map[Key]string{} // identity -> scheme name
	for _, info := range RegisteredSchemes() {
		s := info.Scheme
		k := KeyOf(s, p)
		if prev, ok := seen[k]; ok {
			t.Errorf("%s and %s share cache identity %+v", prev, s.Name(), k)
		}
		seen[k] = s.Name()
	}
	// Knobbed variants must also be distinct from their defaults.
	for _, tc := range []struct {
		a, b Scheme
	}{
		{Hybrid{LockFrac: 0.3}, Hybrid{LockFrac: 0.4}},
		{HybridUpdate{UpdateFrac: 0.5}, HybridUpdate{UpdateFrac: 0.7}},
		{PriorityBus{Inner: SoftwareFlush{}}, SoftwareFlush{}},
	} {
		if ka, kb := KeyOf(tc.a, p), KeyOf(tc.b, p); ka == kb {
			t.Errorf("distinct configurations share cache identity %+v", ka)
		}
	}
}

// TestPaperSchemesFromRegistry: PaperSchemes must keep the paper's
// presentation order regardless of how many extensions register.
func TestPaperSchemesFromRegistry(t *testing.T) {
	var got []string
	for _, s := range PaperSchemes() {
		got = append(got, s.Name())
	}
	want := []string{"Base", "Dragon", "Software-Flush", "No-Cache"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PaperSchemes() = %v, want %v", got, want)
	}
}

// TestDefaultCandidatesFromRegistry: the advisor candidate set is every
// Advise-marked registration, which excludes Base (it is the
// yardstick, not an implementable choice).
func TestDefaultCandidatesFromRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, s := range DefaultCandidates() {
		names[s.Name()] = true
	}
	if names["Base"] {
		t.Error("Base must not be an advisor candidate")
	}
	for _, want := range []string{
		"Dragon", "Software-Flush", "No-Cache", "Hybrid", "Directory",
		"Write-Invalidate", "Hybrid-Update", "Software-Flush+Prio",
	} {
		if !names[want] {
			t.Errorf("advisor candidates missing %s", want)
		}
	}
}
