package serve

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// readOperationsMD loads the operator reference from the repo root.
func readOperationsMD(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading OPERATIONS.md: %v", err)
	}
	return string(data)
}

// TestOperationsDocCoversAllMetrics is the golden drift test keeping
// OPERATIONS.md synchronized with /metrics, in both directions: every
// family the daemon emits must be documented (backtick-quoted) in the
// doc, and every swcc_* series the doc names must still be emitted. Add
// a metric or retire one, and this test forces the matching doc edit.
func TestOperationsDocCoversAllMetrics(t *testing.T) {
	doc := readOperationsMD(t)
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`(swcc_[a-z_]+)`").FindAllStringSubmatch(doc, -1) {
		// swcc_gw_* families belong to the gateway's /metrics page, not
		// the daemon's; internal/gw's own drift test covers them.
		if strings.HasPrefix(m[1], "swcc_gw_") {
			continue
		}
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no swcc_* series found in OPERATIONS.md — parser or doc broken")
	}

	s, ts := newTestServer(t, Config{})
	// Touch an endpoint so per-path counter series exist too.
	post(t, ts, "/v1/bus", `{"scheme": "dragon", "procs": 4}`)
	var buf bytes.Buffer
	s.met.write(&buf, s.ev, s.cfg.Fault)

	emitted := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (swcc_[a-z_]+) `).FindAllStringSubmatch(buf.String(), -1) {
		emitted[m[1]] = true
	}
	if len(emitted) == 0 {
		t.Fatal("no # TYPE lines in scrape — exposition format broken")
	}

	var missing, stale []string
	for name := range emitted {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("emitted but not documented in OPERATIONS.md: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("documented in OPERATIONS.md but no longer emitted: %v", stale)
	}
}

// TestOperationsDocBucketLayoutCurrent pins the documented bucket list
// to the compiled latencyBuckets, so retuning the layout forces the doc
// update.
func TestOperationsDocBucketLayoutCurrent(t *testing.T) {
	doc := readOperationsMD(t)
	parts := make([]string, 0, len(latencyBuckets)+1)
	for _, b := range latencyBuckets {
		parts = append(parts, strconv.FormatFloat(b, 'g', -1, 64))
	}
	parts = append(parts, "+Inf")
	want := strings.Join(parts, " ")
	if !strings.Contains(doc, want) {
		t.Errorf("OPERATIONS.md bucket layout out of date; code has:\n%s", want)
	}
}

// TestOperationsDocStageLabels pins the documented stage label values to
// the compiled stageNames list, both directions.
func TestOperationsDocStageLabels(t *testing.T) {
	doc := readOperationsMD(t)
	// Stages are documented as backtick-quoted list items under the
	// stage-label section.
	for _, st := range stageNames {
		if !strings.Contains(doc, "`"+st+"`") {
			t.Errorf("stage %q not documented in OPERATIONS.md", st)
		}
	}
	m := regexp.MustCompile(`takes exactly (\w+) values`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("OPERATIONS.md no longer states the stage-label count")
	}
	words := map[string]int{"two": 2, "three": 3, "four": 4, "five": 5, "six": 6}
	if words[m[1]] != len(stageNames) {
		t.Errorf("OPERATIONS.md says %q stage values, code has %d", m[1], len(stageNames))
	}
}
