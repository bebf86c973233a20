package gw

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
)

// updateRoutingGolden refreshes testdata/routing_keys.txt. Run
// `go test ./internal/gw -run TestRoutingKeysPinned -update-routing-golden`
// only when a routing-key change is intended: the file exists so that
// rewriting how bodies are decoded cannot silently move a request to a
// different backend (and strand the curves cached there).
var updateRoutingGolden = flag.Bool("update-routing-golden", false, "rewrite testdata/routing_keys.txt")

const routingGoldenPath = "testdata/routing_keys.txt"

// routingGoldenRequests are bodies every backend accepts: each
// registered scheme under each workload spelling (implicit middle, the
// three Table 7 levels, explicit params), the knobbed schemes at
// default, explicit and near-equal knob values, the network endpoint,
// and the request shapes the load generators send.
func routingGoldenRequests() []struct{ path, body string } {
	var out []struct{ path, body string }
	add := func(path, body string) { out = append(out, struct{ path, body string }{path, body}) }
	schemes := []string{"base", "dragon", "swflush", "nocache", "directory", "hybrid", "winv", "hybrid-update", "swflush-prio"}
	for _, s := range schemes {
		add("/v1/bus", fmt.Sprintf(`{"scheme": %q, "procs": 16}`, s))
		for _, lvl := range []string{"low", "mid", "high"} {
			add("/v1/bus", fmt.Sprintf(`{"scheme": %q, "level": %q, "procs": 8, "point": true}`, s, lvl))
		}
		add("/v1/bus", fmt.Sprintf(`{"scheme": %q, "params": {"shd": 0.4, "wr": 0.3, "apl": 4}, "procs": 32}`, s))
		add("/v1/bus", fmt.Sprintf(`{"scheme": %q}`, s))
	}
	// Canonical names and aliases resolve to one scheme.
	add("/v1/bus", `{"scheme": "Software-Flush", "procs": 16}`)
	add("/v1/bus", `{"scheme": "mesi", "procs": 16}`)
	// Knobbed schemes: default, explicit default, explicit values, and
	// values closer together than two decimal places.
	for _, k := range []string{"0.3", "0.301", "0.304", "0.7"} {
		add("/v1/bus", `{"scheme": "hybrid", "lockfrac": `+k+`, "procs": 16}`)
	}
	for _, k := range []string{"0.5", "0.501", "0.504", "0.2"} {
		add("/v1/bus", `{"scheme": "hybrid-update", "updatefrac": `+k+`, "procs": 16}`)
	}
	add("/v1/bus", `{"scheme": "hybrid", "lockfrac": 0.45, "level": "high", "procs": 8, "point": true}`)
	// Network endpoint: stages and model do not enter the routing key.
	for _, s := range []string{"base", "swflush", "nocache", "directory", "hybrid"} {
		add("/v1/network", fmt.Sprintf(`{"scheme": %q, "stages": 4}`, s))
		add("/v1/network", fmt.Sprintf(`{"scheme": %q, "level": "high", "stages": 6, "model": "mva"}`, s))
	}
	add("/v1/network", `{"scheme": "hybrid", "lockfrac": 0.6, "params": {"shd": 0.2}, "stages": 5}`)
	// cohereload: point and curve requests, and the gateway drill.
	for _, shd := range []string{"0.05", "0.25", "0.4375"} {
		add("/v1/bus", `{"scheme": "swflush", "params": {"shd": `+shd+`}, "procs": 16, "point": true}`)
		add("/v1/bus", `{"scheme": "swflush", "params": {"shd": `+shd+`}, "procs": 16}`)
		add("/v1/bus", `{"scheme": "swflush", "params": {"shd": `+shd+`}, "procs": 64, "point": true}`)
	}
	// perfbench: the walk-query shape, knob included where it applies.
	for i, s := range schemes {
		knob := ""
		switch s {
		case "hybrid":
			knob = `, "lockfrac": 0.6180339887498949`
		case "hybrid-update":
			knob = `, "updatefrac": 0.2360679774997897`
		}
		x := float64(i) / 10
		add("/v1/bus", fmt.Sprintf(`{"scheme": "%s"%s, "params": {"ls": %s, "msdat": %s, "shd": %s, "wr": %s, "apl": %s}, "procs": %d, "point": true}`,
			s, knob, ftoa(0.2+0.2*x), ftoa(0.004+0.02*x), ftoa(0.05+0.4*x), ftoa(0.1+0.3*x), ftoa(1+24*x), 8+50*i))
	}
	return out
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderRoutingKeys renders the golden table: routing key, path, body.
func renderRoutingKeys() []byte {
	g := &Gateway{}
	var buf bytes.Buffer
	for _, r := range routingGoldenRequests() {
		fmt.Fprintf(&buf, "%016x %s %s\n", g.routeKey(r.path, []byte(r.body)), r.path, r.body)
	}
	return buf.Bytes()
}

// TestRoutingKeysPinned pins the routing keys of accepted bodies byte
// for byte.
func TestRoutingKeysPinned(t *testing.T) {
	// Every pinned body must be one the backend accepts: keys of
	// rejected bodies carry no affinity promise.
	_, be := newBackend(t)
	for _, r := range routingGoldenRequests() {
		resp, err := http.Post(be.URL+r.path, "application/json", strings.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: backend answered %d", r.path, r.body, resp.StatusCode)
		}
	}
	checkGolden(t, routingGoldenPath, renderRoutingKeys(), *updateRoutingGolden, "-update-routing-golden")
}

// checkGolden compares got with the golden file at path line by line,
// or rewrites the file when update is set.
func checkGolden(t *testing.T, path string, got []byte, update bool, flagName string) {
	t.Helper()
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with %s to create it)", err, flagName)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// updateOwnersGolden refreshes testdata/rendezvous_owners.txt. Run
// `go test ./internal/gw -run TestRendezvousOwnersPinned -update-owners-golden`
// only when a change of backend ranking is intended: every key that
// moves strands the curves its old owner has cached.
var updateOwnersGolden = flag.Bool("update-owners-golden", false, "rewrite testdata/rendezvous_owners.txt")

const ownersGoldenPath = "testdata/rendezvous_owners.txt"

// ownerSets are the fixed fleets the rendezvous golden ranks over.
var ownerSets = [][]string{
	{"http://127.0.0.1:8081", "http://127.0.0.1:8082"},
	{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080"},
	{"http://be-a:9000", "http://be-b:9000", "https://be-c:9000", "http://be-d:9000", "http://be-e:9000"},
}

// renderOwners renders the rendezvous golden: for each routing golden
// request, its key, then per fleet the full affinity rank order and the
// key's owner, both as indexes into the fleet.
func renderOwners(t *testing.T) []byte {
	quiet := slog.New(slog.NewJSONHandler(io.Discard, nil))
	var buf bytes.Buffer
	gws := make([]*Gateway, len(ownerSets))
	for i, set := range ownerSets {
		g, err := New(Config{Backends: set, Logger: quiet})
		if err != nil {
			t.Fatal(err)
		}
		gws[i] = g
		fmt.Fprintf(&buf, "# fleet %d: %s\n", i, strings.Join(set, " "))
	}
	index := func(g *Gateway, b *backend) int {
		for i, c := range g.snapshot() {
			if c == b {
				return i
			}
		}
		return -1
	}
	for _, r := range routingGoldenRequests() {
		key := gws[0].routeKey(r.path, []byte(r.body))
		fmt.Fprintf(&buf, "%016x", key)
		for i, g := range gws {
			fmt.Fprintf(&buf, " %d:", i)
			for _, b := range g.rank(key) {
				fmt.Fprintf(&buf, "%d", index(g, b))
			}
			fmt.Fprintf(&buf, "/%d", index(g, g.owner(key)))
		}
		fmt.Fprintf(&buf, " %s %s\n", r.path, r.body)
	}
	return buf.Bytes()
}

// TestRendezvousOwnersPinned pins which backend owns each routing
// golden request, and the order its keys re-spill in, over three fixed
// fleets.
func TestRendezvousOwnersPinned(t *testing.T) {
	checkGolden(t, ownersGoldenPath, renderOwners(t), *updateOwnersGolden, "-update-owners-golden")
}
