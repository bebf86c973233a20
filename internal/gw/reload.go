package gw

import (
	"math"
)

// Live backend-set reload: a fleet changes shape — capacity added,
// hosts retired, weights retuned — without the gateway restarting and
// cold-starting its view of the world. Reload swaps the routing set
// wholesale behind an atomic pointer, so every request sees either the
// old fleet or the new one, never a half-applied mix. Backends present
// in both sets carry their state across (health, warmth, counters, an
// already-running probe loop): a reload that merely adds one host must
// not re-probe, re-warm, or zero the ninety-nine survivors. Removed
// backends drain instead of dying: they leave the routing set — no new
// request ranks them — while requests already in flight hold their own
// reference to the backend and finish over the shared transport.

// ReloadResult summarizes what one Reload changed.
type ReloadResult struct {
	// Added and Removed list the backend URLs that entered and left the
	// routing set.
	Added, Removed []string
	// Reweighted lists backends whose configured weight changed.
	Reweighted []string
}

// Changed reports whether the reload altered the routing set at all.
func (r ReloadResult) Changed() bool {
	return len(r.Added)+len(r.Removed)+len(r.Reweighted) > 0
}

// Reload replaces the backend set with the given specs (same
// "URL[=WEIGHT]" syntax as Config.Backends). Backends in both the old
// and new sets keep their identity and state; added backends join
// healthy and get a probe loop (when Run is active) whose first round
// corrects that within CheckInterval; removed backends stop being
// ranked but finish their in-flight requests. On a spec error the
// current set is left untouched.
func (g *Gateway) Reload(specs []string) (ReloadResult, error) {
	parsed, err := parseBackends(specs)
	if err != nil {
		return ReloadResult{}, err
	}

	g.mu.Lock()
	old := g.snapshot()
	byURL := make(map[string]*backend, len(old))
	for _, b := range old {
		byURL[b.url] = b
	}
	var res ReloadResult
	next := make([]*backend, 0, len(parsed))
	for _, nb := range parsed {
		ob, ok := byURL[nb.url]
		if !ok {
			res.Added = append(res.Added, nb.url)
			if g.runCtx != nil {
				g.startProbeLoop(g.runCtx, nb)
			}
			next = append(next, nb)
			continue
		}
		delete(byURL, ob.url)
		if w := nb.weight.Load(); w != ob.weight.Load() {
			ob.weight.Store(w)
			res.Reweighted = append(res.Reweighted, ob.url)
		}
		next = append(next, ob)
	}
	for _, ob := range byURL {
		res.Removed = append(res.Removed, ob.url)
		if ob.stop != nil {
			ob.stop()
		}
	}
	g.backends.Store(&next)
	g.reloads.Add(1)
	g.mu.Unlock()

	if res.Changed() {
		g.log.Info("backend set reloaded",
			"backends", len(next), "added", res.Added, "removed", res.Removed,
			"reweighted", res.Reweighted)
	}
	return res, nil
}

// pinnedWeight returns the configured (spec-pinned) weight, or 0 when
// the spec pins none.
func (b *backend) pinnedWeight() float64 {
	if bits := b.weight.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return 0
}
