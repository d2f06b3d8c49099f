package main

import (
	"bytes"
	"strings"
	"testing"

	"rme/internal/perflog"
)

// TestBaselineAnchorsReplay runs E2–E12 in-process and requires each
// manifest's SemanticBytes to equal its runs/baseline.jsonl line: the same
// config, digest and counters. table_sha is one of them, so a changed table
// fails here. E1 and E13 stay out for time, as in FuzzLedgerDeterminism.
func TestBaselineAnchorsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiment grids")
	}
	baseline, err := perflog.Read("../../runs/baseline.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*perflog.Manifest{}
	for _, m := range baseline {
		if m.Tool == "rmrbench" {
			want[m.Config["experiment"]] = m
		}
	}
	got := ledgerRun(t, "-only", strings.Join(fuzzIDs, ","))
	if len(got) != len(fuzzIDs) {
		t.Fatalf("-only %s: %d manifests, want %d", strings.Join(fuzzIDs, ","), len(got), len(fuzzIDs))
	}
	for _, m := range got {
		id := m.Config["experiment"]
		w, ok := want[id]
		if !ok {
			t.Errorf("runs/baseline.jsonl holds no %s anchor", id)
			continue
		}
		if !bytes.Equal(m.SemanticBytes(), w.SemanticBytes()) {
			t.Errorf("%s drifted from its anchor:\nwant %s\ngot  %s", id, w.SemanticBytes(), m.SemanticBytes())
		}
	}
}
