package core

import (
	"fmt"
	"sort"
	"strings"
)

// Info is one registry entry: a scheme prototype plus the metadata the
// API surfaces need to resolve, configure, constrain, and document it.
type Info struct {
	// Scheme is the default instance, used when no knob value is given.
	Scheme Scheme
	// Aliases are additional accepted spellings besides the canonical
	// Scheme.Name() (e.g. "swflush" for Software-Flush). Resolution is
	// case-sensitive, matching the original SchemeByName contract.
	Aliases []string
	// Paper marks the four schemes the paper evaluates; PaperSchemes
	// returns them in registration order.
	Paper bool
	// BusOnly marks schemes defined only on the shared bus: the snoopy
	// schemes, because multistage networks have no broadcast medium,
	// and the priority bus service discipline, whose two-class
	// contention model has no network counterpart.
	BusOnly bool
	// Advise includes the scheme's default instance in the advisor's
	// candidate set (Recommend, /v1/advisor without an explicit list).
	Advise bool
	// Knob names the scheme's tuning parameter ("lockfrac",
	// "updatefrac"); empty for knobless schemes.
	Knob string
	// KnobDefault is the knob value behind the default Scheme instance.
	KnobDefault float64
	// Configure builds an instance with the given knob value; nil for
	// knobless schemes.
	Configure func(v float64) (Scheme, error)
	// Summary is a one-line description for docs and CLI help.
	Summary string
}

// registry is the scheme table: every scheme the model serves, in
// registration order, which fixes PaperSchemes, the advisor's candidate
// order and docs listings. Every enumeration site (core, sim, sweep,
// serve, advisor, CLIs) reads from it, so adding a scheme is one new
// file plus one entry here.
var registry = []Info{
	{
		Scheme:  Base{},
		Aliases: []string{"base"},
		Paper:   true,
		Summary: "coherence-free upper bound: every reference behaves as in a uniprocessor",
	},
	{
		Scheme:  Dragon{},
		Aliases: []string{"dragon"},
		Paper:   true,
		BusOnly: true,
		Advise:  true,
		Summary: "snoopy write-broadcast hardware protocol (paper Table 6)",
	},
	{
		Scheme:  SoftwareFlush{},
		Aliases: []string{"swflush", "software-flush", "flush"},
		Paper:   true,
		Advise:  true,
		Summary: "software scheme: cache shared data, flush at critical-section exit (paper Table 5)",
	},
	{
		Scheme:  NoCache{},
		Aliases: []string{"nocache", "no-cache"},
		Paper:   true,
		Advise:  true,
		Summary: "software scheme: shared data uncacheable, word reads/writes through (paper Table 4)",
	},
	{
		Scheme:  Directory{},
		Aliases: []string{"directory"},
		Advise:  true,
		Summary: "minimal directory-based hardware scheme, valid on bus and network (extension)",
	},
	{
		Scheme:      Hybrid{LockFrac: defaultLockFrac},
		Aliases:     []string{"hybrid"},
		Advise:      true,
		Knob:        "lockfrac",
		KnobDefault: defaultLockFrac,
		Configure:   func(v float64) (Scheme, error) { return Hybrid{LockFrac: v}, nil },
		Summary:     "No-Cache for the lock share of shared references, Software-Flush for the rest",
	},
	{
		Scheme:  WriteInvalidate{},
		Aliases: []string{"winv", "write-invalidate", "wi", "mesi"},
		BusOnly: true,
		Advise:  true,
		Summary: "snoopy write-invalidate (MESI-style) hardware protocol (extension)",
	},
	{
		Scheme:      HybridUpdate{UpdateFrac: defaultUpdateFrac},
		Aliases:     []string{"hybrid-update", "hybridupdate", "competitive"},
		BusOnly:     true,
		Advise:      true,
		Knob:        "updatefrac",
		KnobDefault: defaultUpdateFrac,
		Configure:   func(v float64) (Scheme, error) { return HybridUpdate{UpdateFrac: v}, nil },
		Summary:     "tunable snoopy hybrid: update the hot share of remote stores, invalidate the rest (extension)",
	},
	{
		Scheme:  PriorityBus{Inner: SoftwareFlush{}},
		Aliases: []string{"swflush-prio", "software-flush-prio", "prio", "priority"},
		BusOnly: true,
		Advise:  true,
		Summary: "Software-Flush under a priority bus service discipline instead of FCFS (extension)",
	},
}

// byName maps every canonical name and alias to its registry entry.
var byName = index(registry)

// index maps each entry's canonical Scheme.Name() and aliases to the
// entry. It panics on a nil or unnamed scheme and on any name or alias
// listed twice: such a table is a programming error that must fail
// loudly at init, not shadow an entry silently.
func index(infos []Info) map[string]*Info {
	m := map[string]*Info{}
	for i := range infos {
		info := &infos[i]
		if info.Scheme == nil {
			panic(fmt.Sprintf("core: scheme table entry %d has a nil Scheme", i))
		}
		name := info.Scheme.Name()
		if name == "" {
			panic(fmt.Sprintf("core: scheme table entry %d is unnamed", i))
		}
		for _, key := range append([]string{name}, info.Aliases...) {
			if prev, ok := m[key]; ok {
				panic(fmt.Sprintf("core: scheme name %q listed for both %s and %s", key, prev.Scheme.Name(), name))
			}
			m[key] = info
		}
	}
	return m
}

// SchemeInfoByName resolves a name or alias to its registry entry.
func SchemeInfoByName(name string) (Info, bool) {
	info, ok := byName[name]
	if !ok {
		return Info{}, false
	}
	return *info, true
}

// RegisteredSchemes returns a copy of every registry entry in
// registration order.
func RegisteredSchemes() []Info { return append([]Info(nil), registry...) }

// SchemeNames returns the sorted canonical names of the registered
// schemes.
func SchemeNames() []string {
	names := make([]string, len(registry))
	for i, info := range registry {
		names[i] = info.Scheme.Name()
	}
	sort.Strings(names)
	return names
}

// DefaultCandidates returns the default instances of every
// Advise-marked scheme in registration order: the advisor's candidate
// set.
func DefaultCandidates() []Scheme {
	var out []Scheme
	for _, info := range registry {
		if info.Advise {
			out = append(out, info.Scheme)
		}
	}
	return out
}

// PaperSchemes returns the four schemes of the paper in presentation
// order: Base, Dragon, Software-Flush, No-Cache. It reads the registry's
// Paper-marked entries, whose registration order matches.
func PaperSchemes() []Scheme {
	var out []Scheme
	for _, info := range registry {
		if info.Paper {
			out = append(out, info.Scheme)
		}
	}
	return out
}

// SchemeByName resolves a case-sensitive scheme name or alias ("base",
// "swflush", "dragon", "winv", ...) against the registry, returning the
// scheme's default instance. Unknown names get an error listing the
// registered canonical names.
func SchemeByName(name string) (Scheme, error) {
	if info, ok := byName[name]; ok {
		return info.Scheme, nil
	}
	return nil, fmt.Errorf("core: unknown scheme %q (valid: %s)", name, strings.Join(SchemeNames(), ", "))
}

// defaultLockFrac is the Hybrid knob default used across the stack
// (registry, serve, gateway key derivation).
const defaultLockFrac = 0.3

// defaultUpdateFrac is the Hybrid-Update knob default used across the
// stack.
const defaultUpdateFrac = 0.5
