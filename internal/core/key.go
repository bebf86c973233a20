package core

import "math"

// Key is a bus query's cache identity: the scheme's SchemeKey and the
// workload canonicalized to the parameters that scheme reads. Two
// queries with equal keys have the same demand under every cost table,
// so every layer that caches or routes by query — the evaluator's demand
// cache and batch grouping, the snapshot fingerprint, and the gateway's
// routing key — builds its identity with KeyOf and hashes it with
// Key.Hash. Key is comparable, so it serves directly as a map key.
type Key struct {
	// Scheme is SchemeKey of the query's scheme.
	Scheme string
	// Params is CanonicalParams of the query's workload under the scheme.
	Params Params
}

// KeyOf returns the cache identity of scheme s evaluated on workload p.
func KeyOf(s Scheme, p Params) Key {
	return Key{Scheme: SchemeKey(s), Params: CanonicalParams(s, p)}
}

// Hash folds k into the FNV-1a state h: the scheme key's bytes, then
// the eleven canonical parameters in KeyFields order. Seed a fresh hash
// with FNVOffset. The gateway routes by this hash, so changing it moves
// every query to a different backend and strands its cached curves.
func (k Key) Hash(h uint64) uint64 {
	h = HashBytes(h, k.Scheme)
	for _, f := range k.Params.KeyFields() {
		h = HashFloat(h, *f)
	}
	return h
}

// KeyFields returns pointers to p's eleven workload fields in key
// order, which is Params' declaration order: the order Key.Hash hashes
// them and the evaluator's snapshot format stores them. It differs from
// Fields' Table 7 order, which lists mdshd before apl; routing keys and
// snapshot files written by earlier builds pin the key order.
func (p *Params) KeyFields() [11]*float64 {
	return [...]*float64{
		&p.LS, &p.MsDat, &p.MsIns, &p.MD, &p.Shd, &p.WR,
		&p.APL, &p.MdShd, &p.OClean, &p.OPres, &p.NShd,
	}
}

// FNVOffset is the 64-bit FNV-1a offset basis, the seed of a fresh hash.
const FNVOffset uint64 = 14695981039346656037

const fnvPrime = 1099511628211

// HashBytes folds the bytes of b into the FNV-1a state h.
func HashBytes[T ~string | ~[]byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

// HashFloat folds the IEEE-754 bits of f into the FNV-1a state h, low
// byte first.
func HashFloat(h uint64, f float64) uint64 {
	b := math.Float64bits(f)
	for i := 0; i < 64; i += 8 {
		h = (h ^ (b >> i & 0xff)) * fnvPrime
	}
	return h
}
