package core

// fieldMask is a bitmask over the Table 7 parameter list in fieldSpecs
// order: bit i set means fieldSpecs[i] influences a scheme's demand. It
// is each scheme's one declaration of the workload parameters its
// Frequencies read. Memoization layers canonicalize a Params by it
// before using it as a cache key, so two workloads that differ only in
// parameters a scheme ignores share one cache entry; a wrong mask would
// produce wrong cache hits, which TestParamsUsedDeclarationsSound
// (internal/sweep) probes for. Canonicalization sits on every cache
// lookup, so it runs as straight field copies under the mask instead of
// name lookups and accessor closures, keeping the hot path
// allocation-free.
type fieldMask uint16

// fieldMasker is implemented by every scheme that declares its
// parameters.
type fieldMasker interface {
	fieldMask() fieldMask
}

// mustMask returns the mask of the named Table 2 parameters. The masks
// are built once at init, so an unknown name panics there.
func mustMask(names ...string) fieldMask {
	var m fieldMask
	for _, name := range names {
		i, ok := fieldIndex[name]
		if !ok {
			panic("core: parameter mask names unknown parameter " + name)
		}
		m |= 1 << i
	}
	return m
}

// canonical maps p onto the representative of its equivalence class
// under m: masked-in fields copy through, everything else resets to the
// fixed baseline (zero everywhere, minimum legal apl). The bit positions
// are fieldSpecs order; TestFieldMaskMatchesFieldOrder pins the
// correspondence.
func (p Params) canonical(m fieldMask) Params {
	out := Params{APL: 1}
	if m&(1<<0) != 0 {
		out.LS = p.LS
	}
	if m&(1<<1) != 0 {
		out.MsDat = p.MsDat
	}
	if m&(1<<2) != 0 {
		out.MsIns = p.MsIns
	}
	if m&(1<<3) != 0 {
		out.MD = p.MD
	}
	if m&(1<<4) != 0 {
		out.Shd = p.Shd
	}
	if m&(1<<5) != 0 {
		out.WR = p.WR
	}
	if m&(1<<6) != 0 {
		out.MdShd = p.MdShd
	}
	if m&(1<<7) != 0 {
		out.APL = p.APL
	}
	if m&(1<<8) != 0 {
		out.OClean = p.OClean
	}
	if m&(1<<9) != 0 {
		out.OPres = p.OPres
	}
	if m&(1<<10) != 0 {
		out.NShd = p.NShd
	}
	return out
}

// CanonicalParams maps p to a canonical representative of its equivalence
// class under s: parameters outside the scheme's fieldMask are reset to
// a fixed baseline, parameters in it are copied through. Schemes without
// a fieldMask canonicalize to p itself (every field significant). The
// result is only suitable as a cache key — evaluate demands with the
// original p, which carries the full validation state. It allocates
// nothing.
func CanonicalParams(s Scheme, p Params) Params {
	if fm, ok := s.(fieldMasker); ok {
		return p.canonical(fm.fieldMask())
	}
	return p
}

var (
	baseMask         = mustMask("ls", "msdat", "mains", "md")
	noCacheMask      = mustMask("ls", "msdat", "mains", "md", "shd", "wr")
	swFlushMask      = mustMask("ls", "msdat", "mains", "md", "shd", "apl", "mdshd")
	dragonMask       = mustMask("ls", "msdat", "mains", "md", "shd", "wr", "oclean", "opres", "nshd")
	dirMask          = mustMask("ls", "msdat", "mains", "md", "shd", "wr", "opres")
	hybridMask       = mustMask("ls", "msdat", "mains", "md", "shd", "wr", "apl", "mdshd")
	winvMask         = mustMask("ls", "msdat", "mains", "md", "shd", "wr", "oclean", "opres")
	hybridUpdateMask = dragonMask
	allMask          = fieldMask(1)<<len(fieldSpecs) - 1
)

// Base misses depend only on the reference mix and miss rates (Table 3).
func (Base) fieldMask() fieldMask { return baseMask }

// No-Cache's shared references bypass the cache, split by wr (Table 4).
func (NoCache) fieldMask() fieldMask { return noCacheMask }

// Software-Flush's flush rate is ls*shd/apl, and a flush is dirty with
// probability mdshd; wr does not appear (Table 5).
func (SoftwareFlush) fieldMask() fieldMask { return swFlushMask }

// Dragon reacts to the sharing parameters but ignores apl and mdshd,
// which are flush artifacts (Table 6).
func (Dragon) fieldMask() fieldMask { return dragonMask }

// Directory's invalidation traffic scales with shd*wr*opres (extension
// scheme).
func (Directory) fieldMask() fieldMask { return dirMask }

// Hybrid combines the No-Cache and Software-Flush parameter sets.
func (Hybrid) fieldMask() fieldMask { return hybridMask }

// Write-Invalidate reacts to Dragon's sharing parameters except nshd:
// invalidations steal no cycles, they turn into misses instead.
func (WriteInvalidate) fieldMask() fieldMask { return winvMask }

// Hybrid-Update's update share broadcasts like Dragon (cycle steals via
// nshd included) and its invalidate share misses like Write-Invalidate,
// so the union is exactly Dragon's set.
func (HybridUpdate) fieldMask() fieldMask { return hybridUpdateMask }
