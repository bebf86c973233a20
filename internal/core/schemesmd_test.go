package core

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// schemesTableRows extracts the "Registered schemes" table from
// SCHEMES.md as one slice of cells per data row.
func schemesTableRows(t *testing.T) [][]string {
	t.Helper()
	data, err := os.ReadFile("../../SCHEMES.md")
	if err != nil {
		t.Fatalf("reading SCHEMES.md: %v", err)
	}
	doc := string(data)
	i := strings.Index(doc, "## Registered schemes")
	if i < 0 {
		t.Fatal("SCHEMES.md lost its '## Registered schemes' section")
	}
	section := doc[i:]
	if j := strings.Index(section[1:], "\n## "); j >= 0 {
		section = section[:j+1]
	}
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") ||
			strings.HasPrefix(line, "| Canonical") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for k := range cells {
			cells[k] = strings.TrimSpace(cells[k])
		}
		rows = append(rows, cells)
	}
	if len(rows) == 0 {
		t.Fatal("SCHEMES.md scheme table has no data rows")
	}
	return rows
}

// backticked extracts the backtick-quoted tokens of one table cell.
func backticked(cell string) []string {
	var out []string
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cell, -1) {
		out = append(out, m[1])
	}
	return out
}

// TestSchemesDocCoversRegistry is the golden drift test keeping
// SCHEMES.md synchronized with the registry, in both directions: every
// registered scheme must have a table row whose name, aliases, and knob
// match its registration exactly, and every row must correspond to a
// live registration. Add a protocol to the registry table (or retire
// one, or change an alias or knob) and this test forces the matching
// doc edit.
func TestSchemesDocCoversRegistry(t *testing.T) {
	rows := schemesTableRows(t)

	documented := map[string][]string{} // canonical name -> row cells
	for _, cells := range rows {
		if len(cells) < 5 {
			t.Fatalf("table row has %d cells, want 5: %v", len(cells), cells)
		}
		names := backticked(cells[0])
		if len(names) != 1 {
			t.Fatalf("first cell must hold exactly the canonical name: %v", cells)
		}
		if _, dup := documented[names[0]]; dup {
			t.Errorf("scheme %s documented twice", names[0])
		}
		documented[names[0]] = cells
	}

	// Direction 1: every registration is documented, with exact aliases
	// and knob.
	for _, info := range RegisteredSchemes() {
		name := info.Scheme.Name()
		cells, ok := documented[name]
		if !ok {
			t.Errorf("registered scheme %s has no row in SCHEMES.md", name)
			continue
		}
		gotAliases := backticked(cells[1])
		sort.Strings(gotAliases)
		wantAliases := append([]string(nil), info.Aliases...)
		sort.Strings(wantAliases)
		if !reflect.DeepEqual(gotAliases, wantAliases) {
			t.Errorf("%s: SCHEMES.md aliases %v, registry has %v", name, gotAliases, wantAliases)
		}
		knobs := backticked(cells[4])
		switch {
		case info.Knob == "" && len(knobs) > 0:
			t.Errorf("%s: SCHEMES.md documents knob %v, registry has none", name, knobs)
		case info.Knob != "":
			want := []string{info.Knob}
			if !reflect.DeepEqual(knobs, want) {
				t.Errorf("%s: SCHEMES.md knob cell %v, registry has %v", name, knobs, want)
			}
			if def := fmt.Sprintf("default %g", info.KnobDefault); !strings.Contains(cells[4], def) {
				t.Errorf("%s: knob cell %q does not state %q", name, cells[4], def)
			}
		}
		if info.Paper != strings.Contains(cells[2], "paper") {
			t.Errorf("%s: origin cell %q disagrees with Paper=%v", name, cells[2], info.Paper)
		}
		busOnly := strings.Contains(cells[3], "bus only")
		if info.BusOnly != busOnly {
			t.Errorf("%s: interconnect cell %q disagrees with BusOnly=%v", name, cells[3], info.BusOnly)
		}
	}

	// Direction 2: no stale rows.
	registered := map[string]bool{}
	for _, info := range RegisteredSchemes() {
		registered[info.Scheme.Name()] = true
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("SCHEMES.md documents %s, which is not registered", name)
		}
	}
}
