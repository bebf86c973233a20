package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenIDs are the purely analytical experiments: deterministic,
// trace-free, and fast. Their rendered output is pinned so any
// unintended change to the model, the solvers, or the renderers shows up
// as a diff.
var goldenIDs = []string{
	"table1", "table2", "table3", "table8", "table9",
	"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"packet", "directory", "hybrid", "crossover", "netmva", "envelope", "memspeed",
}

func TestGoldenOutputs(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			ds, err := RunCtx(context.Background(), id, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ds.Render()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", id+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from golden %s;\nregenerate with `go test ./internal/experiments -run TestGolden -update`\ngot:\n%s", path, clip(got))
			}
		})
	}
}

func clip(s string) string {
	if len(s) > 1500 {
		return s[:1500] + "\n...[clipped]"
	}
	return s
}
