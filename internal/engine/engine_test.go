package engine

import (
	"errors"
	"fmt"
	"testing"

	"rme/internal/algorithms/mcs"
	"rme/internal/algorithms/watree"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// gridSpecs builds a mixed grid: two algorithms, several (n, w) points,
// both models — the shape the harness submits.
func gridSpecs() []RunSpec {
	var specs []RunSpec
	for _, alg := range []mutex.Algorithm{watree.New(), mcs.New()} {
		for _, n := range []int{2, 4, 8} {
			for _, w := range []word.Width{8, 16} {
				specs = append(specs, RunSpec{Session: mutex.Config{
					Procs: n, Width: w, Model: sim.CC, Algorithm: alg, Passes: 2, NoTrace: true,
				}})
			}
		}
	}
	return specs
}

func resultKey(rs []Result) string {
	out := ""
	for i, r := range rs {
		out += fmt.Sprintf("%d: cc=%d dsm=%d tcc=%d tdsm=%d steps=%d viol=%d err=%v\n",
			i, r.MaxRMRCC, r.MaxRMRDSM, r.TotalRMRCC, r.TotalRMRDSM,
			r.Steps, len(r.Violations), r.Err)
	}
	return out
}

// TestRunDeterministicAcrossParallelism is the engine's core guarantee:
// identical results, in submission order, at any parallelism level.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	specs := gridSpecs()
	want := resultKey(Run(specs, Options{Parallel: 1}))
	for _, par := range []int{2, 4, 8} {
		got := resultKey(Run(specs, Options{Parallel: par}))
		if got != want {
			t.Errorf("parallel=%d diverges from parallel=1:\n--- 1 ---\n%s--- %d ---\n%s",
				par, want, par, got)
		}
	}
}

// TestRunMatchesDirectSessions checks the engine against hand-rolled
// session runs.
func TestRunMatchesDirectSessions(t *testing.T) {
	specs := gridSpecs()
	results := Run(specs, Options{Parallel: 4})
	for i, spec := range specs {
		s, err := mutex.NewSession(spec.Session)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunRoundRobin(); err != nil {
			t.Fatal(err)
		}
		r := results[i]
		if r.Err != nil {
			t.Fatalf("spec %d: %v", i, r.Err)
		}
		if r.MaxRMRCC != s.MaxPassageRMRs(sim.CC) || r.MaxRMRDSM != s.MaxPassageRMRs(sim.DSM) {
			t.Errorf("spec %d: max RMRs (%d, %d) != direct (%d, %d)", i,
				r.MaxRMRCC, r.MaxRMRDSM, s.MaxPassageRMRs(sim.CC), s.MaxPassageRMRs(sim.DSM))
		}
		if r.Steps != s.Machine().Steps() {
			t.Errorf("spec %d: steps %d != direct %d", i, r.Steps, s.Machine().Steps())
		}
		s.Close()
	}
}

// TestWorkerReuse: a released compatible session is recycled, not rebuilt.
func TestWorkerReuse(t *testing.T) {
	cfg := mutex.Config{Procs: 4, Width: 16, Model: sim.CC, Algorithm: watree.New(), NoTrace: true}
	w := NewWorker()
	defer w.Close()

	s1, err := w.Session(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
	w.Release(s1)
	s2, err := w.Session(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Error("compatible session was not reused")
	}
	if err := s2.RunRoundRobin(); err != nil {
		t.Fatalf("reused session run: %v", err)
	}
	w.Release(s2)

	// Incompatible request: a new session must be built.
	other := cfg
	other.Procs = 8
	s3, err := w.Session(other)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Error("incompatible session was reused")
	}
	w.Release(s3)

	// The first shape is still on the worker behind the incompatible one.
	s4, err := w.Session(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s4 != s1 {
		t.Error("released session was dropped when an incompatible one was built")
	}
	w.Release(s4)
}

// TestWorkerReuseEquivalence: a recycled session produces the same
// measurements as a fresh one, run after run.
func TestWorkerReuseEquivalence(t *testing.T) {
	cfg := mutex.Config{Procs: 6, Width: 8, Model: sim.CC, Algorithm: watree.New(), Passes: 2, NoTrace: true}
	fresh, err := mutex.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
	wantCC, wantDSM := fresh.MaxPassageRMRs(sim.CC), fresh.MaxPassageRMRs(sim.DSM)
	wantSteps := fresh.Machine().Steps()

	w := NewWorker()
	defer w.Close()
	for cycle := 0; cycle < 3; cycle++ {
		s, err := w.Session(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunRoundRobin(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if s.MaxPassageRMRs(sim.CC) != wantCC || s.MaxPassageRMRs(sim.DSM) != wantDSM ||
			s.Machine().Steps() != wantSteps {
			t.Errorf("cycle %d: (%d, %d, %d) != fresh (%d, %d, %d)", cycle,
				s.MaxPassageRMRs(sim.CC), s.MaxPassageRMRs(sim.DSM), s.Machine().Steps(),
				wantCC, wantDSM, wantSteps)
		}
		w.Release(s)
	}
}

// TestRunDriveCapture: a Drive that captures what it needs from the session
// into a slot of its own index-aligned slice (here the CS grant order under
// a seeded random schedule) fills the same slice at any parallelism.
func TestRunDriveCapture(t *testing.T) {
	orderAt := func(par int) [][]int {
		orders := make([][]int, 6)
		var specs []RunSpec
		for seed := range orders {
			specs = append(specs, RunSpec{
				Session: mutex.Config{Procs: 3, Width: 16, Model: sim.CC, Algorithm: mcs.New(), NoTrace: true},
				Drive: func(s *mutex.Session) error {
					err := s.RunRandom(int64(seed), mutex.RandomRunOptions{})
					orders[seed] = s.CSOrder()
					return err
				},
			})
		}
		for i, r := range Run(specs, Options{Parallel: par}) {
			if r.Err != nil {
				t.Fatalf("parallel=%d spec %d: %v", par, i, r.Err)
			}
		}
		return orders
	}
	a, b := orderAt(1), orderAt(3)
	for i := range a {
		if len(a[i]) != 3 {
			t.Errorf("spec %d: CS order %v, want all 3 processes", i, a[i])
		}
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			t.Errorf("spec %d: CS order %v at parallel=1, %v at parallel=3", i, a[i], b[i])
		}
	}
}

// TestRunReportsErrors: a failing construction yields a per-result error
// without disturbing its neighbours.
func TestRunReportsErrors(t *testing.T) {
	specs := []RunSpec{
		{Session: mutex.Config{Procs: 2, Width: 16, Model: sim.CC, Algorithm: mcs.New(), NoTrace: true}},
		{Session: mutex.Config{Procs: 0, Width: 16, Model: sim.CC, Algorithm: mcs.New()}}, // invalid
		{Session: mutex.Config{Procs: 2, Width: 16, Model: sim.CC, Algorithm: mcs.New(), NoTrace: true}},
	}
	res := Run(specs, Options{Parallel: 2})
	if res[0].Err != nil || res[2].Err != nil {
		t.Errorf("healthy specs failed: %v / %v", res[0].Err, res[2].Err)
	}
	if res[1].Err == nil {
		t.Error("invalid spec did not fail")
	}
}

// TestForEachLowestError: the reported failure is index-deterministic.
func TestForEachLowestError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := ForEach(16, 8, func(i int) error {
		switch i {
		case 11:
			return errB
		case 5:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Errorf("ForEach error = %v, want %v", err, errA)
	}
	if err := ForEach(4, 2, func(int) error { return nil }); err != nil {
		t.Errorf("ForEach clean = %v", err)
	}
}

// TestMetrics accumulates across parallel runs, and the snapshot is the same
// at any parallelism.
func TestMetrics(t *testing.T) {
	specs := gridSpecs()
	snapFor := func(par int) MetricsSnapshot {
		m := &Metrics{}
		Run(specs, Options{Parallel: par, Metrics: m})
		return m.Snapshot()
	}
	snap := snapFor(4)
	if snap.Runs != int64(len(specs)) {
		t.Errorf("Runs = %d, want %d", snap.Runs, len(specs))
	}
	if snap.MaxRMR <= 0 || snap.AvgMaxRMR <= 0 || snap.Steps <= 0 || snap.Passages <= 0 {
		t.Errorf("degenerate snapshot: %+v", snap)
	}
	if serial := snapFor(1); serial != snap {
		t.Errorf("snapshot differs across parallelism:\n 1: %+v\n 4: %+v", serial, snap)
	}
}
