package engine

import (
	"bytes"
	"testing"

	"rme/internal/algorithms/watree"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/trace"
)

func captureBytes(t *testing.T, parallel int) []byte {
	t.Helper()
	var tc trace.Capture
	specs := gridSpecs()
	for _, r := range Run(specs, Options{Parallel: parallel, Trace: &tc}) {
		if r.Err != nil {
			t.Fatalf("run %d: %v", r.Index, r.Err)
		}
	}
	if tc.Len() != len(specs) {
		t.Fatalf("captured %d slots for %d specs", tc.Len(), len(specs))
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.FormatJSONL, tc.Runs()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceIdenticalAcrossParallelism is the observability-plane extension
// of the engine's determinism guarantee: the serialized trace of a batch is
// byte-identical at any parallelism level.
func TestTraceIdenticalAcrossParallelism(t *testing.T) {
	want := captureBytes(t, 1)
	if len(want) == 0 {
		t.Fatal("empty trace")
	}
	for _, par := range []int{2, 8} {
		if got := captureBytes(t, par); !bytes.Equal(got, want) {
			t.Errorf("parallel=%d trace differs from parallel=1 (%d vs %d bytes)", par, len(got), len(want))
		}
	}
}

// TestTraceIdenticalAcrossReset: a Reset-reused machine emits the same
// trace as a fresh one. The single-worker engine path reuses its machine
// between compatible specs, so two identical specs in one batch compare a
// fresh construction against a recycled one.
func TestTraceIdenticalAcrossReset(t *testing.T) {
	cfg := mutex.Config{Procs: 4, Width: 16, Model: sim.CC, Algorithm: watree.New(), Passes: 2}
	var tc trace.Capture
	specs := []RunSpec{{Session: cfg}, {Session: cfg}, {Session: cfg}}
	for _, r := range Run(specs, Options{Parallel: 1, Trace: &tc}) {
		if r.Err != nil {
			t.Fatalf("run %d: %v", r.Index, r.Err)
		}
	}
	runs := tc.Runs()
	if len(runs) != 3 {
		t.Fatalf("captured %d runs", len(runs))
	}
	var first bytes.Buffer
	if err := trace.Write(&first, trace.FormatJSONL, []trace.Run{{Label: runs[0].Label, Procs: runs[0].Procs, Model: runs[0].Model, Events: runs[0].Events}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		var buf bytes.Buffer
		r := runs[i]
		r.Index = 0 // compare payloads, not slot numbers
		if err := trace.Write(&buf, trace.FormatJSONL, []trace.Run{r}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Errorf("reused-machine run %d trace differs from fresh run", i)
		}
	}
}

// TestTraceOverridesNoTrace: capturing forces event retention even when the
// spec asks for NoTrace (the campaign default), so captures are never empty.
func TestTraceOverridesNoTrace(t *testing.T) {
	cfg := mutex.Config{Procs: 2, Width: 16, Model: sim.CC, Algorithm: watree.New(), NoTrace: true}
	var tc trace.Capture
	res := Run([]RunSpec{{Session: cfg}}, Options{Parallel: 1, Trace: &tc})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	runs := tc.Runs()
	if len(runs) != 1 || len(runs[0].Events) == 0 {
		t.Fatalf("NoTrace spec captured no events: %d runs", len(runs))
	}
	if runs[0].Label != "watree" {
		t.Errorf("label = %q, want the algorithm name", runs[0].Label)
	}
}
