package gw

import (
	"bytes"
	"flag"
	"fmt"
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
	got := renderRoutingKeys()
	if *updateRoutingGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(routingGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(routingGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-routing-golden to create it)", err)
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
