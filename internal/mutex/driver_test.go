package mutex_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tas"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

func TestConfigValidation(t *testing.T) {
	if _, err := mutex.NewSession(mutex.Config{Procs: 2, Width: 8, Model: sim.CC}); err == nil {
		t.Error("nil algorithm must be rejected")
	}
	if _, err := mutex.NewSession(mutex.Config{
		Procs: 2, Width: 8, Model: sim.CC, Algorithm: tas.New(), Passes: -1,
	}); err == nil {
		t.Error("negative passes must be rejected")
	}
	if _, err := mutex.NewSession(mutex.Config{
		Procs: 0, Width: 8, Model: sim.CC, Algorithm: tas.New(),
	}); err == nil {
		t.Error("0 processes must be rejected")
	}
}

func TestPassageStatsShape(t *testing.T) {
	s, err := mutex.NewSession(mutex.Config{
		Procs: 3, Width: 8, Model: sim.CC, Algorithm: tas.New(), Passes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	perProc := make(map[int]int)
	for _, st := range stats {
		perProc[st.Proc]++
		if st.EndedByCrash || st.Recovery {
			t.Errorf("crash-free run produced crash/recovery passage: %+v", st)
		}
		if st.Steps <= 0 {
			t.Errorf("passage with %d steps recorded", st.Steps)
		}
		if st.RMRsCC < st.RMRsDSM && st.RMRsDSM > st.Steps {
			t.Errorf("inconsistent RMR counts: %+v", st)
		}
	}
	for p := 0; p < 3; p++ {
		if perProc[p] != 2 {
			t.Errorf("p%d has %d passages, want 2", p, perProc[p])
		}
	}
	if s.MaxPassageRMRs(sim.CC) <= 0 {
		t.Error("max passage RMRs should be positive")
	}
	if s.TotalRMRs(sim.CC) <= 0 {
		t.Error("total RMRs should be positive")
	}
}

func TestRunRandomDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) sim.Schedule {
		s, err := mutex.NewSession(mutex.Config{
			Procs: 3, Width: 8, Model: sim.CC, Algorithm: rspin.New(), Passes: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.RunRandom(seed, mutex.RandomRunOptions{CrashProb: 0.1, MaxCrashesPerProc: 2}); err != nil {
			t.Fatal(err)
		}
		return s.Machine().Schedule()
	}
	a, b := run(7), run(7)
	if a.String() != b.String() {
		t.Error("same seed produced different schedules")
	}
	c := run(8)
	if a.String() == c.String() {
		t.Error("different seeds produced identical schedules (suspicious)")
	}
}

// TestApplyReplaysCrashesAndSteps: Apply routes crash actions to CrashProc
// and the rest to StepProc, so replaying a random crash run's schedule
// action by action, or whole through Replay, reproduces it exactly; a crash
// action on a non-recoverable algorithm is refused as CrashProc refuses it,
// and Replay names the refused action's index.
func TestApplyReplaysCrashesAndSteps(t *testing.T) {
	cfg := mutex.Config{Procs: 3, Width: 8, Model: sim.CC, Algorithm: rspin.New(), Passes: 2}
	orig, err := mutex.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if err := orig.RunRandom(7, mutex.RandomRunOptions{CrashProb: 0.1, MaxCrashesPerProc: 2}); err != nil {
		t.Fatal(err)
	}
	want := orig.Machine().Schedule()
	if !strings.Contains(want.String(), "^") {
		t.Fatalf("seed 7 schedule has no crash action: %s", want)
	}
	applyEach := func(s *mutex.Session, sched sim.Schedule) error {
		for _, a := range sched {
			if _, err := s.Apply(a); err != nil {
				return fmt.Errorf("Apply(%v): %w", a, err)
			}
		}
		return nil
	}
	ways := []struct {
		name   string
		replay func(*mutex.Session, sim.Schedule) error
	}{
		{"Apply", applyEach},
		{"Replay", (*mutex.Session).Replay},
	}
	for _, way := range ways {
		replay, err := mutex.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer replay.Close()
		if err := way.replay(replay, want); err != nil {
			t.Fatalf("%s: %v", way.name, err)
		}
		if got := replay.Machine().Schedule(); got.String() != want.String() {
			t.Fatalf("%s: replayed schedule differs:\n got %s\nwant %s", way.name, got, want)
		}
	}

	s, err := mutex.NewSession(mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: tas.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply(sim.Action{Proc: 0, Crash: true}); err == nil {
		t.Fatal("Apply delivered a crash to a non-recoverable algorithm")
	}
	err = s.Replay(sim.Schedule{{Proc: 0}, {Proc: 1, Crash: true}})
	if err == nil || !strings.HasPrefix(err.Error(), "replay action 1 (1^): ") {
		t.Fatalf("Replay of a crash on a non-recoverable algorithm: got %v, want a replay action 1 (1^) error", err)
	}
}

func TestZeroPassesFinishesImmediately(t *testing.T) {
	s, err := mutex.NewSession(mutex.Config{
		Procs: 2, Width: 8, Model: sim.CC, Algorithm: tas.New(), Passes: 0,
	})
	if err == nil {
		// Passes 0 defaults to 1; verify the default applied.
		defer s.Close()
		if s.Config().Passes != 1 {
			t.Errorf("Passes default = %d, want 1", s.Config().Passes)
		}
		return
	}
	t.Fatalf("unexpected error: %v", err)
}

// violatingAlgorithm "locks" without any exclusion: every Lock succeeds
// immediately after one shared step, so two processes overlap in the CS and
// the monitor must catch it.
type violatingAlgorithm struct{}

func (violatingAlgorithm) Name() string      { return "broken" }
func (violatingAlgorithm) Recoverable() bool { return false }
func (violatingAlgorithm) Make(mem memory.Allocator, n int) (mutex.Instance, error) {
	return violatingInstance{c: mem.NewCell("broken", memory.Shared, 0)}, nil
}

type violatingInstance struct{ c memory.Cell }

func (in violatingInstance) Bind(env memory.Env) mutex.Handle {
	return &violatingHandle{env: env, c: in.c}
}

type violatingHandle struct {
	mutex.Unrecoverable

	env memory.Env
	c   memory.Cell
}

func (h *violatingHandle) Lock()   { h.env.Read(h.c) }
func (h *violatingHandle) Unlock() { h.env.Read(h.c) }

func TestMonitorCatchesMutualExclusionViolation(t *testing.T) {
	s, err := mutex.NewSession(mutex.Config{
		Procs: 2, Width: 8, Model: sim.CC, Algorithm: violatingAlgorithm{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.RunRoundRobin()
	if err == nil {
		t.Fatal("monitor failed to flag the broken lock")
	}
	if len(s.Violations()) == 0 {
		t.Fatal("no violations recorded")
	}
}

// stuckAlgorithm waits forever on a cell nobody sets.
type stuckAlgorithm struct{}

func (stuckAlgorithm) Name() string      { return "stuck" }
func (stuckAlgorithm) Recoverable() bool { return false }
func (stuckAlgorithm) Make(mem memory.Allocator, n int) (mutex.Instance, error) {
	return stuckInstance{c: mem.NewCell("never", memory.Shared, 0)}, nil
}

type stuckInstance struct{ c memory.Cell }

func (in stuckInstance) Bind(env memory.Env) mutex.Handle {
	return &stuckHandle{env: env, c: in.c}
}

type stuckHandle struct {
	mutex.Unrecoverable

	env memory.Env
	c   memory.Cell
}

func (h *stuckHandle) Lock() {
	h.env.SpinUntil(h.c, func(v word.Word) bool { return v == 1 })
}
func (h *stuckHandle) Unlock() {}

func TestRunReportsDeadlock(t *testing.T) {
	s, err := mutex.NewSession(mutex.Config{
		Procs: 2, Width: 8, Model: sim.CC, Algorithm: stuckAlgorithm{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunRoundRobin(); !errors.Is(err, mutex.ErrStuck) {
		t.Fatalf("want ErrStuck, got %v", err)
	}
}

func TestTagNames(t *testing.T) {
	tests := []struct {
		give int
		want string
	}{
		{mutex.TagRemainder, "remainder"},
		{mutex.TagEntry, "entry"},
		{mutex.TagCS, "CS"},
		{mutex.TagExit, "exit"},
		{mutex.TagRecover, "recover"},
		{99, "tag(99)"},
	}
	for _, tt := range tests {
		if got := mutex.TagName(tt.give); got != tt.want {
			t.Errorf("TagName(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestRecoverStatusString(t *testing.T) {
	if mutex.RecoverAcquired.String() != "acquired" ||
		mutex.RecoverReleased.String() != "released" ||
		mutex.RecoverIdle.String() != "idle" {
		t.Error("RecoverStatus names wrong")
	}
}
