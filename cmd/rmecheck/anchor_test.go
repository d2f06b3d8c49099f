package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"rme/internal/perflog"
)

// TestBaselineAnchorsReplay replays every rmecheck anchor of
// runs/baseline.jsonl in-process, with flags rebuilt from the anchor's
// config, and requires the appended manifest's SemanticBytes to equal the
// committed line's: the same config, digest and counters.
func TestBaselineAnchorsReplay(t *testing.T) {
	baseline, err := perflog.Read("../../runs/baseline.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	anchors := 0
	for _, want := range baseline {
		if want.Tool != "rmecheck" {
			continue
		}
		anchors++
		path := filepath.Join(t.TempDir(), "ledger.jsonl")
		args := []string{"-ledger", path}
		for k, v := range want.Config {
			args = append(args, "-"+k+"="+v)
		}
		if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		got, err := perflog.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("run(%v) appended %d manifests, want 1", args, len(got))
		}
		if !bytes.Equal(got[0].SemanticBytes(), want.SemanticBytes()) {
			t.Errorf("run(%v) drifted from its anchor:\nwant %s\ngot  %s", args, want.SemanticBytes(), got[0].SemanticBytes())
		}
	}
	if anchors == 0 {
		t.Fatal("runs/baseline.jsonl holds no rmecheck anchor")
	}
}
