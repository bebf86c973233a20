package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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
	// Snoopy marks schemes that rely on bus snooping (write broadcasts,
	// invalidations, cache-to-cache supply). Snoopy schemes are bus-only
	// because multistage networks have no broadcast medium.
	Snoopy bool
	// BusOnly marks schemes defined only on the shared bus. Every
	// snoopy scheme is bus-only; so is the priority bus service
	// discipline, whose two-class contention model has no network
	// counterpart.
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

// Registry maps scheme names and aliases to registered Info entries. It
// replaces the old hardcoded SchemeByName switch: every enumeration site
// (core, sim, sweep, serve, advisor, CLIs) reads from it, so adding a
// protocol is one new file plus one Register call. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Info
	order  []*Info
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*Info{}}
}

// Register adds a scheme under its canonical Scheme.Name() plus every
// alias. It panics on a nil or unnamed scheme and on any name or alias
// already taken — duplicate registrations are programming errors that
// must fail loudly at init, not overwrite silently at runtime.
func (r *Registry) Register(info Info) {
	if info.Scheme == nil {
		panic("core: Register called with nil Scheme")
	}
	name := info.Scheme.Name()
	if name == "" {
		panic("core: Register called with unnamed Scheme")
	}
	entry := info
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range append([]string{name}, info.Aliases...) {
		if prev, ok := r.byName[key]; ok {
			panic(fmt.Sprintf("core: scheme name %q already registered for %s", key, prev.Scheme.Name()))
		}
		r.byName[key] = &entry
	}
	r.order = append(r.order, &entry)
}

// Lookup resolves a name or alias to its registry entry.
func (r *Registry) Lookup(name string) (Info, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.byName[name]
	if !ok {
		return Info{}, false
	}
	return *info, true
}

// ByName resolves a name or alias to the scheme's default instance. The
// error lists the registered canonical names so callers never see a
// stale hardcoded hint.
func (r *Registry) ByName(name string) (Scheme, error) {
	if info, ok := r.Lookup(name); ok {
		return info.Scheme, nil
	}
	return nil, fmt.Errorf("core: unknown scheme %q (valid: %s)", name, strings.Join(r.Names(), ", "))
}

// All returns every registered entry in registration order.
func (r *Registry) All() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, len(r.order))
	for i, info := range r.order {
		out[i] = *info
	}
	return out
}

// Names returns the sorted canonical names of all registered schemes.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, len(r.order))
	for i, info := range r.order {
		names[i] = info.Scheme.Name()
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Candidates returns the default instances of every Advise-marked scheme
// in registration order: the advisor's candidate set.
func (r *Registry) Candidates() []Scheme {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Scheme
	for _, info := range r.order {
		if info.Advise {
			out = append(out, info.Scheme)
		}
	}
	return out
}

// registry is the package default registry behind the package-level
// functions; the built-in schemes register into it at init.
var registry = NewRegistry()

// Register adds a scheme to the default registry. See Registry.Register.
func Register(info Info) { registry.Register(info) }

// SchemeInfoByName resolves a name or alias against the default registry.
func SchemeInfoByName(name string) (Info, bool) { return registry.Lookup(name) }

// RegisteredSchemes returns every default-registry entry in registration
// order.
func RegisteredSchemes() []Info { return registry.All() }

// SchemeNames returns the sorted canonical names of the default
// registry's schemes.
func SchemeNames() []string { return registry.Names() }

// DefaultCandidates returns the advisor's default candidate set from the
// default registry.
func DefaultCandidates() []Scheme { return registry.Candidates() }

// init registers the built-in schemes. Grouped in one place (rather than
// per-file init functions) so registration order — which fixes
// PaperSchemes, candidate order, and docs listings — does not depend on
// compilation file order. Third-party protocols register from their own
// files; each is one file plus one Register call.
func init() {
	Register(Info{
		Scheme:  Base{},
		Aliases: []string{"base"},
		Paper:   true,
		Summary: "coherence-free upper bound: every reference behaves as in a uniprocessor",
	})
	Register(Info{
		Scheme:  Dragon{},
		Aliases: []string{"dragon"},
		Paper:   true,
		Snoopy:  true,
		BusOnly: true,
		Advise:  true,
		Summary: "snoopy write-broadcast hardware protocol (paper Table 6)",
	})
	Register(Info{
		Scheme:  SoftwareFlush{},
		Aliases: []string{"swflush", "software-flush", "flush"},
		Paper:   true,
		Advise:  true,
		Summary: "software scheme: cache shared data, flush at critical-section exit (paper Table 5)",
	})
	Register(Info{
		Scheme:  NoCache{},
		Aliases: []string{"nocache", "no-cache"},
		Paper:   true,
		Advise:  true,
		Summary: "software scheme: shared data uncacheable, word reads/writes through (paper Table 4)",
	})
	Register(Info{
		Scheme:  Directory{},
		Aliases: []string{"directory"},
		Advise:  true,
		Summary: "minimal directory-based hardware scheme, valid on bus and network (extension)",
	})
	Register(Info{
		Scheme:      Hybrid{LockFrac: defaultLockFrac},
		Aliases:     []string{"hybrid"},
		Advise:      true,
		Knob:        "lockfrac",
		KnobDefault: defaultLockFrac,
		Configure:   func(v float64) (Scheme, error) { return Hybrid{LockFrac: v}, nil },
		Summary:     "No-Cache for the lock share of shared references, Software-Flush for the rest",
	})
	Register(Info{
		Scheme:  WriteInvalidate{},
		Aliases: []string{"winv", "write-invalidate", "wi", "mesi"},
		Snoopy:  true,
		BusOnly: true,
		Advise:  true,
		Summary: "snoopy write-invalidate (MESI-style) hardware protocol (extension)",
	})
	Register(Info{
		Scheme:      HybridUpdate{UpdateFrac: defaultUpdateFrac},
		Aliases:     []string{"hybrid-update", "hybridupdate", "competitive"},
		Snoopy:      true,
		BusOnly:     true,
		Advise:      true,
		Knob:        "updatefrac",
		KnobDefault: defaultUpdateFrac,
		Configure:   func(v float64) (Scheme, error) { return HybridUpdate{UpdateFrac: v}, nil },
		Summary:     "tunable snoopy hybrid: update the hot share of remote stores, invalidate the rest (extension)",
	})
	Register(Info{
		Scheme:  PriorityBus{Inner: SoftwareFlush{}},
		Aliases: []string{"swflush-prio", "software-flush-prio", "prio", "priority"},
		BusOnly: true,
		Advise:  true,
		Summary: "Software-Flush under a priority bus service discipline instead of FCFS (extension)",
	})
}

// defaultLockFrac is the Hybrid knob default used across the stack
// (registry, serve, gateway key derivation).
const defaultLockFrac = 0.3

// defaultUpdateFrac is the Hybrid-Update knob default used across the
// stack.
const defaultUpdateFrac = 0.5
