// Identity of the committed perf baseline: runs/baseline.jsonl is the one
// record of every experiment and anchor run, and rmereport regress matches
// a fresh ledger against it by config digest.
package rme_test

import (
	"testing"

	"rme/internal/perflog"
)

func TestBaselineLedgerConsistency(t *testing.T) {
	ms, err := perflog.Read("runs/baseline.jsonl")
	if err != nil {
		t.Fatalf("baseline ledger: %v", err)
	}
	if len(ms) == 0 {
		t.Fatal("baseline ledger is empty")
	}
	// Every manifest must carry its identity: finalized digest and label.
	for _, m := range ms {
		if m.ConfigDigest == "" || m.Label != "baseline" {
			t.Errorf("manifest %s:%s label=%q digest=%q not baseline-stamped",
				m.Tool, m.Config["experiment"], m.Label, m.ConfigDigest)
		}
	}
}
