package faults

import (
	"reflect"
	"strings"
	"testing"

	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tas"
	"rme/internal/algorithms/watree"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// TestBrokenCampaignShrinksToReplayableReproducer is the end-to-end
// acceptance scenario: a campaign against the intentionally crash-unsafe
// BrokenTAS must find a mutual exclusion violation, shrink it, and the
// printed (seed, schedule) pair must replay the same violation on a fresh
// session, byte-identically.
func TestBrokenCampaignShrinksToReplayableReproducer(t *testing.T) {
	cfg := mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: NewBroken()}
	c := Campaign{Session: cfg, Seed: 7}
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if rep.Ok() {
		t.Fatal("campaign found no failures on the broken algorithm")
	}
	var fail *Failure
	for _, f := range rep.Failures {
		if f.Oracle == "mutual-exclusion" {
			fail = f
			break
		}
	}
	if fail == nil {
		t.Fatalf("no mutual-exclusion failure among %d failures; first: %s",
			len(rep.Failures), rep.Failures[0])
	}
	if len(fail.Shrunk) == 0 || len(fail.Shrunk) > len(fail.Schedule) {
		t.Fatalf("shrunk schedule has %d actions, original %d", len(fail.Shrunk), len(fail.Schedule))
	}

	// Round-trip the printed reproducer: parse the rendered schedule and
	// replay it on a fresh session.
	parsed, err := sim.ParseSchedule(fail.Shrunk.String())
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", fail.Shrunk.String(), err)
	}
	_, out, err := ReplayTraced(cfg, parsed)
	if err != nil {
		t.Fatalf("ReplayTraced: %v", err)
	}
	if len(out.Violations) == 0 {
		t.Fatalf("replay of %q produced no violation", fail.Shrunk.String())
	}
	if got := out.Schedule.String(); got != fail.Shrunk.String() {
		t.Fatalf("replayed schedule %q != reproducer %q", got, fail.Shrunk.String())
	}
	if (MutualExclusion{}).Check(out) == "" {
		t.Fatal("mutual-exclusion oracle does not fire on the replayed outcome")
	}
}

// TestCampaignDeterministicAcrossParallelism runs the same broken-algorithm
// campaign at -parallel 1 and 4 and demands identical reports.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	cfg := mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: NewBroken()}
	run := func(par int) *Report {
		rep, err := Campaign{Session: cfg, Seed: 11, Parallel: par}.Run()
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		return rep
	}
	a, b := run(1), run(4)
	if a.Runs != b.Runs {
		t.Fatalf("run counts differ: %d vs %d", a.Runs, b.Runs)
	}
	if !reflect.DeepEqual(a.Sources, b.Sources) {
		t.Fatalf("source stats differ:\n%+v\n%+v", a.Sources, b.Sources)
	}
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("failure counts differ: %d vs %d", len(a.Failures), len(b.Failures))
	}
	for i := range a.Failures {
		if a.Failures[i].String() != b.Failures[i].String() {
			t.Fatalf("failure %d differs:\n%s\n%s", i, a.Failures[i], b.Failures[i])
		}
	}
}

// TestCleanCampaignRecoverable runs a full default campaign against a correct
// recoverable lock and expects zero failures under the default oracles.
func TestCleanCampaignRecoverable(t *testing.T) {
	cfg := mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: rspin.New()}
	rep, err := Campaign{Session: cfg, Seed: 3,
		Sources: DefaultSources(true, 3, testing.Short())}.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("clean algorithm failed %d runs; first: %s", len(rep.Failures), rep.Failures[0])
	}
	if rep.Runs == 0 || len(rep.Sources) == 0 {
		t.Fatalf("campaign ran nothing: %+v", rep)
	}
}

// TestCleanCampaignNonRecoverable checks the crash-free random axis against a
// non-recoverable lock.
func TestCleanCampaignNonRecoverable(t *testing.T) {
	cfg := mutex.Config{Procs: 3, Width: 8, Model: sim.CC, Algorithm: tas.New()}
	rep, err := Campaign{Session: cfg, Seed: 5}.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("clean algorithm failed: %s", rep.Failures[0])
	}
}

// TestCrashSourcesRejectedForNonRecoverable checks the configuration guard.
func TestCrashSourcesRejectedForNonRecoverable(t *testing.T) {
	cfg := mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: tas.New()}
	_, err := Campaign{Session: cfg, Sources: []Source{ExhaustiveCrashes{Crashes: 1}}}.Run()
	if err == nil || !strings.Contains(err.Error(), "not recoverable") {
		t.Fatalf("want not-recoverable error, got %v", err)
	}
}

// TestRepeatedSourceNameRejected checks that a source list naming one axis
// twice is an error naming it: the report and its ledger counters keep one
// row per source name, so the second row would overwrite the first.
func TestRepeatedSourceNameRejected(t *testing.T) {
	cfg := mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: rspin.New()}
	_, err := Campaign{Session: cfg, Sources: []Source{
		ExhaustiveCrashes{Crashes: 1}, RMRTargeted{}, ExhaustiveCrashes{Crashes: 1},
	}}.Run()
	if err == nil || !strings.Contains(err.Error(), "exhaustive-single") {
		t.Fatalf("want an error naming exhaustive-single, got %v", err)
	}
}

// TestSourcePlanGeneration pins the plan grids the sources derive from a
// synthetic probe.
func TestSourcePlanGeneration(t *testing.T) {
	pr := Probe{Steps: 10, RMRAt: []int{2, 5}}

	if got := len((ExhaustiveCrashes{Crashes: 1}).Plans(pr)); got != 10 {
		t.Errorf("exhaustive-single plans = %d, want 10", got)
	}
	if got := len((RMRTargeted{}).Plans(pr)); got != 2 {
		t.Errorf("rmr-targeted plans = %d, want 2", got)
	}
	if got := len((ParkedCrashes{}).Plans(pr)); got != 10 {
		t.Errorf("crash-parked plans = %d, want 10", got)
	}
	if got := len((SystemWideCrashes{}).Plans(pr)); got != 5 {
		t.Errorf("system-wide plans = %d, want 5 (stride 2 over 10)", got)
	}
	for _, pl := range (ExhaustiveCrashes{Crashes: 2}).Plans(pr) {
		if len(pl.Crashes) != 2 || pl.Crashes[0].At >= pl.Crashes[1].At {
			t.Fatalf("double plan not ascending: %s", pl)
		}
	}
	if got := len((ExhaustiveCrashes{Crashes: 2}).Plans(pr)); got == 0 {
		t.Error("exhaustive-double generated no plans")
	}
}

// TestRandomPlansDeterministic checks that the random axis is a pure function
// of its seed, and that different seeds diverge.
func TestRandomPlansDeterministic(t *testing.T) {
	pr := Probe{Steps: 20}
	a := (RandomCrashes{Runs: 8, MaxCrashes: 3, Seed: 42}).Plans(pr)
	b := (RandomCrashes{Runs: 8, MaxCrashes: 3, Seed: 42}).Plans(pr)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := (RandomCrashes{Runs: 8, MaxCrashes: 3, Seed: 43}).Plans(pr)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	for _, pl := range a {
		if pl.Seed < 0 {
			t.Fatalf("derived seed is negative: %d", pl.Seed)
		}
		for i := 1; i < len(pl.Crashes); i++ {
			if pl.Crashes[i-1].At > pl.Crashes[i].At {
				t.Fatalf("crashes not ascending: %s", pl)
			}
		}
	}
}

// TestPlanAndCrashStrings pins the rendering used in reports.
func TestPlanAndCrashStrings(t *testing.T) {
	cases := []struct {
		pl   Plan
		want string
	}{
		{Plan{Seed: -1}, "rr"},
		{Plan{Seed: -1, Crashes: []Crash{{At: 3, Victim: VictimScheduled}}}, "rr @3:scheduled"},
		{Plan{Seed: -1, Crashes: []Crash{{At: 0, Victim: VictimParked}, {At: 9, Victim: VictimAll}}}, "rr @0:parked @9:all"},
		{Plan{Seed: 41, Crashes: []Crash{{At: 12, Victim: VictimRandom}}}, "seed=41 @12:random"},
		{Plan{Seed: 0, Crashes: []Crash{{At: 4, Victim: 2}}}, "seed=0 @4:p2"},
	}
	for _, c := range cases {
		if got := c.pl.String(); got != c.want {
			t.Errorf("Plan%+v.String() = %q, want %q", c.pl, got, c.want)
		}
	}
}

// TestOraclesOnSyntheticOutcomes unit-tests the oracle decision logic.
func TestOraclesOnSyntheticOutcomes(t *testing.T) {
	cfg := mutex.Config{Procs: 2, Passes: 1}
	clean := &Outcome{Cfg: cfg, AllDone: true, CompletedPasses: []int{1, 1}}
	if d := (Reentry{}).Check(clean); d != "" {
		t.Errorf("reentry fired on clean outcome: %s", d)
	}
	abandoned := &Outcome{Cfg: cfg, AllDone: true, CompletedPasses: []int{1, 0}}
	if d := (Reentry{}).Check(abandoned); d == "" {
		t.Error("reentry did not flag an abandoned super-passage")
	}
	// Failed runs belong to DeadlockFree, not Reentry.
	stuck := &Outcome{Cfg: cfg, Err: mutex.ErrStuck, CompletedPasses: []int{0, 0}}
	if d := (Reentry{}).Check(stuck); d != "" {
		t.Errorf("reentry fired on a stuck run: %s", d)
	}
	if d := (DeadlockFree{}).Check(stuck); d == "" {
		t.Error("deadlock-free did not flag a stuck run")
	}
	if d := (DeadlockFree{}).Check(&Outcome{Err: ErrStepBound}); d == "" {
		t.Error("deadlock-free did not flag a bound-exceeded run")
	}
	over := &Outcome{MaxRMRCC: 100, MaxRMRDSM: 10}
	if d := (RMRBudget{CC: 50}).Check(over); d == "" {
		t.Error("rmr-budget did not flag a CC overrun")
	}
	if d := (RMRBudget{CC: 0, DSM: 50}).Check(over); d != "" {
		t.Errorf("disabled CC budget fired: %s", d)
	}
	if d := (MutualExclusion{}).Check(&Outcome{Violations: []string{"boom"}}); d != "boom" {
		t.Errorf("mutual-exclusion detail = %q", d)
	}
}

// TestDefaultBudgetShape sanity-checks the ceiling table: known algorithms
// get positive budgets, unknown ones get none, non-local-spin algorithms
// have no DSM ceiling, and a tree's ceiling follows the fan-out it builds.
func TestDefaultBudgetShape(t *testing.T) {
	if b := DefaultBudget(watree.New(), 16, word.Width(8), sim.CC); b <= 0 {
		t.Errorf("watree budget = %d", b)
	}
	wide := DefaultBudget(watree.New(), 64, word.Width(16), sim.CC)
	bin := DefaultBudget(watree.New(watree.WithFanout(2)), 64, word.Width(16), sim.CC)
	if bin <= wide {
		t.Errorf("fanout-2 budget %d should exceed fanout-w budget %d (deeper tree)", bin, wide)
	}
	if b := DefaultBudget(watree.New(watree.WithFanout(2), watree.WithFastPath()), 64, word.Width(16), sim.CC); b != bin {
		t.Errorf("the fast path changed the fanout-2 budget: %d vs %d", b, bin)
	}
	// The fast path reserves a root bit, so at n=64, w=8 the tree is built
	// at fan-out 7 and has depth 3, one level deeper than fan-out 8.
	plain := DefaultBudget(watree.New(), 64, word.Width(8), sim.CC)
	if b := DefaultBudget(watree.New(watree.WithFastPath()), 64, word.Width(8), sim.CC); b != 88 || plain != 72 {
		t.Errorf("n=64 w=8 budgets: fast %d, plain %d; want 88 (depth 3) and 72 (depth 2)", b, plain)
	}
	if b := DefaultBudget(tas.New(), 4, word.Width(8), sim.DSM); b != 0 {
		t.Errorf("tas DSM budget = %d, want 0 (non-local spinning)", b)
	}
	if b := DefaultBudget(NewBroken(), 4, word.Width(8), sim.CC); b != 0 {
		t.Errorf("unknown algorithm budget = %d, want 0", b)
	}
}

// TestDeriveSeed checks non-negativity and spread.
func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		for i := 0; i < 16; i++ {
			s := deriveSeed(base, i)
			if s < 0 {
				t.Fatalf("deriveSeed(%d, %d) = %d < 0", base, i, s)
			}
			if seen[s] {
				t.Fatalf("deriveSeed collision at (%d, %d)", base, i)
			}
			seen[s] = true
		}
	}
}

// TestErrIsReplayable pins which failure classes the shrinker refuses.
func TestErrIsReplayable(t *testing.T) {
	if errIsReplayable(ErrStepBound) {
		t.Error("step-bound failures must not be replay-shrunk")
	}
	if errIsReplayable(sim.ErrMaxSteps) {
		t.Error("max-steps failures must not be replay-shrunk")
	}
	if !errIsReplayable(nil) || !errIsReplayable(mutex.ErrStuck) {
		t.Error("nil/stuck outcomes are replayable")
	}
}
