package gw

// Live backend-set reload: a fleet changes shape — capacity added,
// hosts retired — without the gateway restarting and cold-starting its
// view of the world. Reload swaps the routing set wholesale behind an
// atomic pointer, so every request sees either the old fleet or the new
// one, never a half-applied mix. Backends present in both sets carry
// their state across (health, counters, an already-running probe loop):
// a reload that merely adds one host must not re-probe or zero the
// ninety-nine survivors. Removed backends drain instead of dying: they
// leave the routing set — no new request ranks them — while requests
// already in flight hold their own reference to the backend and finish
// over the shared transport.

// ReloadResult summarizes what one Reload changed.
type ReloadResult struct {
	// Added and Removed list the backend URLs that entered and left the
	// routing set.
	Added, Removed []string
}

// Reload replaces the backend set with the given specs (same syntax as
// Config.Backends). Backends in both the old and new sets keep their
// identity and state; added backends join healthy and get a probe loop
// (when Run is active) whose first round corrects that within
// CheckInterval; removed backends stop being ranked but finish their
// in-flight requests. On a spec error the current set is left untouched.
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

	if len(res.Added)+len(res.Removed) > 0 {
		g.log.Info("backend set reloaded",
			"backends", len(next), "added", res.Added, "removed", res.Removed)
	}
	return res, nil
}
