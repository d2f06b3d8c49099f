package engine

import (
	"bytes"
	"reflect"
	"testing"

	"rme/internal/algorithms/grlock"
	"rme/internal/algorithms/mcs"
	"rme/internal/algorithms/watree"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/trace"
)

func captureBytes(t *testing.T, parallel int) []byte {
	t.Helper()
	var tc trace.Capture
	specs := gridSpecs()
	for i, r := range Run(specs, Options{Parallel: parallel, Trace: &tc}) {
		if r.Err != nil {
			t.Fatalf("run %d: %v", i, r.Err)
		}
	}
	if n := len(tc.Runs()); n != len(specs) {
		t.Fatalf("captured %d runs for %d specs", n, len(specs))
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

// TestCaptureAcrossBatches: two traced batches share one Capture. Slots run
// on across the batches, a spec whose session fails to build (grlock at n=256
// overflows a w=8 word) leaves a gap rather than shifting its successors, and
// the captured runs are identical at any parallelism.
func TestCaptureAcrossBatches(t *testing.T) {
	first := gridSpecs()[:4]
	second := []RunSpec{
		{Session: mutex.Config{Procs: 2, Width: 16, Model: sim.CC, Algorithm: mcs.New(), NoTrace: true}},
		{Session: mutex.Config{Procs: 256, Width: 8, Model: sim.CC, Algorithm: grlock.New(), NoTrace: true}},
		{Session: mutex.Config{Procs: 3, Width: 16, Model: sim.DSM, Algorithm: watree.New(), NoTrace: true}},
	}
	capture := func(par int) []trace.Run {
		var tc trace.Capture
		for b, specs := range [][]RunSpec{first, second} {
			for i, r := range Run(specs, Options{Parallel: par, Trace: &tc}) {
				if failed := b == 1 && i == 1; (r.Err != nil) != failed {
					t.Fatalf("parallel=%d batch %d spec %d: err = %v", par, b, i, r.Err)
				}
			}
		}
		return tc.Runs()
	}
	serial := capture(1)
	var slots []int
	for _, r := range serial {
		slots = append(slots, r.Index)
	}
	if want := []int{0, 1, 2, 3, 4, 6}; !reflect.DeepEqual(slots, want) {
		t.Fatalf("captured slots %v, want %v", slots, want)
	}
	if serial[4].Label != "mcs" || serial[5].Label != "watree" || serial[5].Model != sim.DSM {
		t.Errorf("second batch holds %q and %q/%v, want mcs and watree/DSM",
			serial[4].Label, serial[5].Label, serial[5].Model)
	}
	if parallel := capture(3); !reflect.DeepEqual(parallel, serial) {
		t.Error("captured runs differ between parallel=1 and parallel=3")
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
	for i, r := range Run(specs, Options{Parallel: 1, Trace: &tc}) {
		if r.Err != nil {
			t.Fatalf("run %d: %v", i, r.Err)
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
