package check

// Tests for the stateful explorer's own guarantees: depth-truncation
// accounting, the machine-step economy of checkpoint/restore + memoization,
// determinism across -parallel settings, and the env-gated n=3 exhaustive
// runs.

import (
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/ticket"
	"rme/internal/algorithms/tournament"
	"rme/internal/algorithms/watree"
	"rme/internal/algorithms/yatree"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/telemetry"
)

func yatreeCrashConfig() Config {
	return Config{
		Session: mutex.Config{
			Procs: 2, Width: 8, Model: sim.CC, Algorithm: yatree.New(),
		},
		CrashesPerProc: 1,
		MaxSchedules:   10_000,
	}
}

// TestDepthTruncationCounted is the regression for the seed explorer's silent
// drop of depth-limited prefixes: they neither counted as complete schedules
// nor set the truncation flag, so a too-small MaxDepth looked like a clean
// exhaustive pass. Now every such prefix lands in DepthTruncated and flips
// Truncated, in both the reference and the stateful explorer, and in every
// reduction mode.
func TestDepthTruncationCounted(t *testing.T) {
	cfg := Config{
		Session: mutex.Config{
			Procs: 2, Width: 8, Model: sim.CC, Algorithm: ticket.New(),
		},
		MaxDepth: 5, // below the ~9 steps two ticket passages need
	}
	ref, err := ExhaustiveReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.DepthTruncated == 0 {
		t.Fatal("reference reported no depth-truncated prefixes at MaxDepth=5")
	}
	if !ref.Truncated {
		t.Fatal("a depth-capped search is incomplete and must report Truncated")
	}
	if ref.Complete != 0 {
		t.Fatalf("no ticket schedule finishes in 5 steps, got Complete=%d", ref.Complete)
	}
	for _, mode := range []struct {
		name      string
		memo, por bool
	}{
		{"plain", false, false},
		{"memo", true, false},
		{"por", false, true},
		{"memo+por", true, true},
	} {
		cfg := cfg
		cfg.Memo, cfg.POR = mode.memo, mode.por
		got, err := Exhaustive(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if got.DepthTruncated == 0 {
			t.Fatalf("%s: depth-truncated prefixes not counted", mode.name)
		}
		if !got.Truncated || got.Complete != 0 {
			t.Fatalf("%s: want depth truncation flagged, got %+v", mode.name, got)
		}
		if mode.name == "plain" && got.DepthTruncated != ref.DepthTruncated {
			t.Fatalf("plain DepthTruncated=%d, reference %d", got.DepthTruncated, ref.DepthTruncated)
		}
	}
}

// TestMachineStepEconomy locks in the point of the rebuild: on a crashy
// configuration the memoized + POR-reduced search must cost at least 5x fewer
// machine steps than the seed DFS exploring the same configuration. (The
// measured gap on this config is orders of magnitude; 5x is the floor the
// issue demands.)
func TestMachineStepEconomy(t *testing.T) {
	if testing.Short() {
		t.Skip("reference enumeration is slow, skipped under -short")
	}
	cfg := yatreeCrashConfig()
	ref, err := ExhaustiveReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Memo, cfg.POR = true, true
	got, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated {
		t.Fatalf("reduced search should finish the whole space: %+v", got)
	}
	if ref.MachineSteps < 5*got.MachineSteps {
		t.Fatalf("machine-step economy below 5x: reference %d, stateful %d",
			ref.MachineSteps, got.MachineSteps)
	}
	t.Logf("machine steps: reference %d, stateful %d (%.0fx)",
		ref.MachineSteps, got.MachineSteps,
		float64(ref.MachineSteps)/float64(got.MachineSteps))
}

// TestRestoreReleasesFailedCheckpoint: when a restore's checkpoint rebuild
// fails, the checkpoint session it checked out goes back to the worker, so
// close ends that session's bodies instead of leaving them parked. The path
// holds only invalid actions, so the rebuild fails at its first one.
func TestRestoreReleasesFailedCheckpoint(t *testing.T) {
	start := runtime.NumGoroutine()
	cfg := Config{Session: mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: yatree.New()}}
	e := newExplorer(cfg.withDefaults(), 1, 1)
	for i := 0; i < 40; i++ {
		e.path = append(e.path, sim.Action{Proc: 99})
	}
	if err := e.restore(len(e.path), mutex.RewindPoint{}); err == nil {
		t.Fatal("restore replayed a path of invalid actions")
	}
	e.close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: checkpoint session bodies leaked", runtime.NumGoroutine(), start)
		}
		runtime.Gosched()
	}
}

// TestRewindTelemetry: the rewind counters are published where restores
// rewind and where they fall back, and publishing them changes nothing in
// the Result. rspin n=3 rewinds, relaunching bodies and feeding them steps,
// never at the step gate, since the driver binds every handle to its Proc's
// feeding Env, and never declines; tournament n=2 registers a multi-cell
// wait, so its sessions decline and its restores replay from a Reset.
func TestRewindTelemetry(t *testing.T) {
	for _, tc := range []struct {
		alg     mutex.Algorithm
		n       int
		nonzero []string
		zero    []string
	}{
		{rspin.New(), 3, []string{"check_rewinds", "check_rewind_relaunches", "check_rewind_fed_steps"}, []string{"check_rewind_gate_fed_steps", "check_rewind_declines"}},
		{tournament.New(), 2, []string{"check_rewind_declines"}, []string{"check_rewinds"}},
	} {
		cfg := Config{Session: mutex.Config{Procs: tc.n, Width: 8, Model: sim.CC, Algorithm: tc.alg}, Memo: true, POR: true}
		plain, err := Exhaustive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		cfg.Telemetry = reg
		traced, err := Exhaustive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("%s n=%d: Result with telemetry %+v, without %+v", tc.alg.Name(), tc.n, traced, plain)
		}
		flat := reg.Snapshot().Flat()
		for _, name := range tc.nonzero {
			if flat[name] == 0 {
				t.Errorf("%s n=%d: %s is 0", tc.alg.Name(), tc.n, name)
			}
		}
		for _, name := range tc.zero {
			if v, ok := flat[name]; !ok || v != 0 {
				t.Errorf("%s n=%d: %s = %d (published %v), want a published 0", tc.alg.Name(), tc.n, name, v, ok)
			}
		}
	}
}

// TestResultStableAcrossParallelism: the merged Result must be deep-equal at
// any Parallel value — branch budgets, visited sets, and merge order are all
// per-root-branch, so worker scheduling cannot leak into the report.
func TestResultStableAcrossParallelism(t *testing.T) {
	base := yatreeCrashConfig()
	base.Memo, base.POR = true, true
	var want *Result
	for _, par := range []int{1, 2, 8} {
		cfg := base
		cfg.Parallel = par
		got, err := Exhaustive(cfg)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("result differs at parallel=%d:\n got %+v\nwant %+v", par, got, want)
		}
	}
}

// TestExhaustiveN3 is the gated deep run: exhaustive certification of the
// tree algorithms at n=3 under memoization + POR, completing without
// truncation. watree carries no crash budget at n=3 (its crashy n=3 space
// exceeds tens of millions of duplicated states; EXPERIMENTS.md tracks the
// measured lower bound), yatree keeps one crash per process. Enable with
// RME_CHECK_N3=1; CI runs it in a dedicated gated step.
func TestExhaustiveN3(t *testing.T) {
	if os.Getenv("RME_CHECK_N3") == "" {
		t.Skip("set RME_CHECK_N3=1 to run the n=3 exhaustive certification")
	}
	cases := []struct {
		name    string
		alg     mutex.Algorithm
		crashes int
	}{
		{"watree-n3", watree.New(), 0},
		{"yatree-n3c1", yatree.New(), 1},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				Session: mutex.Config{
					Procs: 3, Width: 8, Model: sim.CC, Algorithm: c.alg,
				},
				CrashesPerProc: c.crashes,
				MaxSchedules:   10_000_000,
				MaxStates:      32_000_000,
				Memo:           true,
				POR:            true,
			}
			res, err := Exhaustive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Fatalf("unexpected failure: %v", res.Err())
			}
			if res.Truncated || res.Complete == 0 {
				t.Fatalf("search did not complete: %+v", res)
			}
			t.Logf("%s: %d states, %d complete schedules, %d machine steps",
				c.name, res.StatesVisited, res.Complete, res.MachineSteps)
		})
	}
}

// BenchmarkExhaustive contrasts the seed DFS with the stateful explorer on
// the same configuration; b.ReportMetric surfaces machine steps per run so
// the economy is visible next to wall time.
func BenchmarkExhaustive(b *testing.B) {
	modes := []struct {
		name string
		run  func(Config) (*Result, error)
		memo bool
		por  bool
	}{
		{"reference", ExhaustiveReference, false, false},
		{"stateful-plain", Exhaustive, false, false},
		{"stateful-memo-por", Exhaustive, true, true},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			cfg := yatreeCrashConfig()
			cfg.MaxSchedules = 2_000
			cfg.Memo, cfg.POR = m.memo, m.por
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := m.run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.MachineSteps
			}
			b.ReportMetric(float64(steps), "machine-steps/run")
		})
	}
}
