package obs_test

import (
	"os"
	"regexp"
	"testing"

	"swcc/internal/gw"
	"swcc/internal/obs"
	"swcc/internal/serve"
)

// TestOperationsDocCoversMetricFamilies holds OPERATIONS.md to both
// tiers' declared family tables, in both directions (each tier's own
// operations test checks its scraped page against the doc). Every declared family must have a reference
// table row (| `name` | type | ...) with the declared type, and every
// backtick-quoted swcc_* name in the doc must be a declared family.
// Declare a family or retire one, and this test forces the doc edit.
func TestOperationsDocCoversMetricFamilies(t *testing.T) {
	data, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading OPERATIONS.md: %v", err)
	}
	doc := string(data)

	declared := map[string]obs.Family{}
	for _, table := range [][]obs.Family{serve.MetricFamilies, gw.MetricFamilies} {
		for _, f := range table {
			if _, dup := declared[f.Name]; dup {
				t.Errorf("family %s declared twice", f.Name)
			}
			declared[f.Name] = f
		}
	}

	rows := map[string]string{} // family name -> documented type
	for _, m := range regexp.MustCompile("(?m)^\\| `(swcc_[a-z_]+)` \\| ([a-z]+) \\|").FindAllStringSubmatch(doc, -1) {
		rows[m[1]] = m[2]
	}
	if len(rows) == 0 {
		t.Fatal("no metric table rows found in OPERATIONS.md — parser or doc broken")
	}
	for name, f := range declared {
		switch typ, ok := rows[name]; {
		case !ok:
			t.Errorf("declared but no OPERATIONS.md table row: %s", name)
		case typ != f.Type:
			t.Errorf("%s: declared %s, OPERATIONS.md says %s", name, f.Type, typ)
		}
	}
	for _, m := range regexp.MustCompile("`(swcc_[a-z_]+)`").FindAllStringSubmatch(doc, -1) {
		if _, ok := declared[m[1]]; !ok {
			t.Errorf("OPERATIONS.md names %s, which no tier declares", m[1])
		}
	}
}
