package harness

import (
	"strings"
	"testing"
)

// renderAll runs an experiment and renders every resulting table to one
// string.
func renderAll(t *testing.T, exp Experiment, opts Options) string {
	t.Helper()
	tables, err := exp.Run(opts)
	if err != nil {
		t.Fatalf("%s (parallel=%d): %v", exp.ID, opts.Parallel, err)
	}
	var sb strings.Builder
	for i := range tables {
		tables[i].Render(&sb)
	}
	return sb.String()
}

// TestParallelismDoesNotChangeTables is the engine's determinism guarantee
// at the harness level: the fully rendered experiment tables are
// byte-identical whether the grid runs on one worker or eight. E9–E12 are
// the grids with a Drive of their own; E10–E12 read what they need beyond
// the Result through it.
func TestParallelismDoesNotChangeTables(t *testing.T) {
	for _, id := range []string{"E2", "E6", "E9", "E10", "E11", "E12"} {
		t.Run(id, func(t *testing.T) {
			exp, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			serial := renderAll(t, exp, Options{Parallel: 1})
			parallel := renderAll(t, exp, Options{Parallel: 8})
			if serial != parallel {
				t.Errorf("rendered tables differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s--- parallel ---\n%s",
					serial, parallel)
			}
		})
	}
}
