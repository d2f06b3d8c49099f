package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzIDs is FuzzLedgerDeterminism's domain. E1 and E13 stay out: they take
// about 9 s and 3 s alone, where E2–E12 together take under 2 s.
var fuzzIDs = []string{"E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}

// FuzzLedgerDeterminism property-tests the perf ledger's determinism
// contract over random -only subsets of E2–E12 (bit i of mask selects
// fuzzIDs[i]): every manifest's SemanticBytes is the same at -parallel 1,
// at -parallel 4, and with the non-semantic flags -heartbeat, -metrics and
// -runlabel set. The seed corpus runs with the ordinary tests.
func FuzzLedgerDeterminism(f *testing.F) {
	f.Add(uint16(0b000_0001_0000)) // E6
	f.Add(uint16(0b101_0100_0001)) // E2, E8, E10, E12
	f.Add(uint16(0b010_0010_0110)) // E3, E4, E7, E11
	f.Fuzz(func(t *testing.T, mask uint16) {
		if testing.Short() {
			t.Skip("runs experiment grids")
		}
		var ids []string
		for i, id := range fuzzIDs {
			if mask&(1<<i) != 0 {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			t.Skip("an empty -only runs every experiment")
		}
		only := strings.Join(ids, ",")
		base := ledgerRun(t, "-only", only, "-parallel", "1")
		if len(base) != len(ids) {
			t.Fatalf("-only %s: %d manifests, want %d", only, len(base), len(ids))
		}
		metrics := filepath.Join(t.TempDir(), "metrics.jsonl")
		for name, args := range map[string][]string{
			"-parallel 4": {"-only", only, "-parallel", "4"},
			"telemetry":   {"-only", only, "-heartbeat", "1ms", "-metrics", metrics, "-runlabel", "X"},
		} {
			ms := ledgerRun(t, args...)
			if len(ms) != len(base) {
				t.Fatalf("-only %s, %s: %d manifests, want %d", only, name, len(ms), len(base))
			}
			for i, m := range ms {
				if got, want := m.SemanticBytes(), base[i].SemanticBytes(); !bytes.Equal(got, want) {
					t.Errorf("-only %s, %s changed manifest %d:\nbase:    %s\nvariant: %s", only, name, i, want, got)
				}
			}
		}
	})
}
