package check

// Differential tests: the stateful explorer against the seed DFS
// (ExhaustiveReference). With Memo and POR off the two must agree exactly —
// same traversal, same counts, same messages. With the reductions on, exact
// schedule counts legitimately differ (convergent interleavings collapse),
// but verdicts may not: any algorithm the reference proves safe must come out
// safe, every fixture it catches must stay caught, and reduced-mode
// counterexamples must still replay.

import (
	"reflect"
	"testing"

	"rme/internal/algorithms/clh"
	"rme/internal/algorithms/grlock"
	"rme/internal/algorithms/mcs"
	"rme/internal/algorithms/qword"
	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tas"
	"rme/internal/algorithms/ticket"
	"rme/internal/algorithms/tournament"
	"rme/internal/algorithms/watree"
	"rme/internal/algorithms/yatree"
	"rme/internal/faults"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// diffCase is one algorithm configuration both explorers run.
type diffCase struct {
	name    string
	alg     mutex.Algorithm
	n       int
	width   int
	crashes int
	// maxSchedules and maxStates bound the search for configurations whose
	// full schedule tree is too large to enumerate; exact-equality checks are
	// skipped for these (budget slicing differs from the reference's global
	// budget once a cap binds) and only verdict parity is required.
	maxSchedules int
	maxStates    int
}

func (c diffCase) config() Config {
	return Config{
		Session: mutex.Config{
			Procs: c.n, Width: word.Width(c.width), Model: sim.CC, Algorithm: c.alg,
		},
		CrashesPerProc: c.crashes,
		MaxSchedules:   c.maxSchedules,
		MaxStates:      c.maxStates,
	}
}

// diffCases covers every algorithm in the repo at n=2, the tree algorithms
// at n=3, and the known-bad fixtures.
func diffCases() []diffCase {
	return []diffCase{
		{name: "tas-n2", alg: tas.New(), n: 2, width: 8},
		{name: "ticket-n2", alg: ticket.New(), n: 2, width: 8},
		{name: "mcs-n2", alg: mcs.New(), n: 2, width: 8},
		{name: "clh-n2", alg: clh.New(), n: 2, width: 8},
		{name: "tournament-n2", alg: tournament.New(), n: 2, width: 8},
		{name: "qword-n2", alg: qword.New(), n: 2, width: 16},
		{name: "grlock-n2c1", alg: grlock.New(), n: 2, width: 8, crashes: 1, maxSchedules: 10_000, maxStates: 100_000},
		{name: "rspin-n2c1", alg: rspin.New(), n: 2, width: 8, crashes: 1, maxSchedules: 10_000, maxStates: 100_000},
		{name: "yatree-n2c1", alg: yatree.New(), n: 2, width: 8, crashes: 1, maxSchedules: 10_000, maxStates: 100_000},
		{name: "watree-n2c1", alg: watree.New(), n: 2, width: 8, crashes: 1, maxSchedules: 10_000, maxStates: 100_000},
		{name: "ticket-n3", alg: ticket.New(), n: 3, width: 8, maxSchedules: 10_000, maxStates: 100_000},
		{name: "yatree-n3", alg: yatree.New(), n: 3, width: 8, maxSchedules: 10_000, maxStates: 100_000},
		{name: "broken-ticket-n2", alg: faults.NewBrokenTicket(), n: 2, width: 8},
		{name: "wedging-tas-n2", alg: faults.NewWedgingTAS(), n: 2, width: 8},
		{name: "broken-tas-n2c1", alg: faults.BrokenTAS{}, n: 2, width: 8, crashes: 1, maxSchedules: 10_000, maxStates: 100_000},
	}
}

// TestDifferentialAgainstReference runs the seed DFS once per case and holds
// the stateful explorer to it twice over. Plain mode (no reductions) is the
// same search, so every reportable field must match (machine-step accounting
// excepted: spending fewer steps on the same traversal is the point). The
// reduced modes (memo, POR, both) may collapse the search but never change
// its answer, and their counterexamples must replay on a fresh machine.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, c := range diffCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.maxSchedules != 0 {
				t.Skip("budget-capped case: reference enumeration is slow, skipped under -short")
			}
			cfg := c.config()
			ref, err := ExhaustiveReference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Run("plain", func(t *testing.T) {
				got, err := Exhaustive(cfg)
				if err != nil {
					t.Fatal(err)
				}
				comparePlain(t, c, got, ref)
			})
			t.Run("reduced", func(t *testing.T) {
				compareReduced(t, cfg, ref)
			})
		})
	}
}

// comparePlain checks unreduced-explorer output against the reference.
func comparePlain(t *testing.T, c diffCase, got, ref *Result) {
	t.Helper()
	if c.maxSchedules != 0 && (ref.Truncated || got.Truncated) {
		// Budget slicing makes truncation points differ; only verdict
		// parity is defined here.
		assertVerdictParity(t, got, ref)
		return
	}
	type comparable struct {
		Complete       int
		Truncated      bool
		DepthTruncated int
		Violations     []string
		Deadlocks      []string
	}
	g := comparable{got.Complete, got.Truncated, got.DepthTruncated, got.Violations, got.Deadlocks}
	w := comparable{ref.Complete, ref.Truncated, ref.DepthTruncated, ref.Violations, ref.Deadlocks}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("plain explorer diverges from reference:\n got %+v\nwant %+v", g, w)
	}
	if !reflect.DeepEqual(got.ViolationSchedules, ref.ViolationSchedules) ||
		!reflect.DeepEqual(got.DeadlockSchedules, ref.DeadlockSchedules) {
		t.Fatal("structured counterexample schedules diverge from reference")
	}
	if got.StatesVisited != 0 || got.StatesPruned != 0 || got.SleepPruned != 0 {
		t.Fatalf("plain mode reported reduction stats: %+v", got)
	}
}

// compareReduced checks every reduction mode's verdicts against the
// reference's. The scale-out mechanisms (symmetry canonicalization, shared
// visited sets) are reduction modes like memo and POR: each
// combination must keep the reference's verdict and produce replayable
// counterexamples. Algorithms with no declared symmetry group exercise the
// symmetry modes as exact no-ops, which is itself part of the contract.
func compareReduced(t *testing.T, cfg Config, ref *Result) {
	t.Helper()
	for _, mode := range []struct {
		name string
		set  func(*Config)
	}{
		{"memo", func(c *Config) { c.Memo = true }},
		{"por", func(c *Config) { c.POR = true }},
		{"memo+por", func(c *Config) { c.Memo, c.POR = true, true }},
		{"memo+sym", func(c *Config) { c.Memo, c.Symmetry = true, true }},
		{"memo+por+sym", func(c *Config) { c.Memo, c.POR, c.Symmetry = true, true, true }},
		{"shared", func(c *Config) { c.SharedVisited, c.WaveSize = true, 2 }},
		{"shared+por+sym", func(c *Config) {
			c.SharedVisited, c.WaveSize, c.POR, c.Symmetry = true, 2, true, true
		}},
	} {
		cfg := cfg
		mode.set(&cfg)
		got, err := Exhaustive(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		assertVerdictParity(t, got, ref)
		// Reduced-mode counterexamples must replay on a fresh machine.
		if len(got.ViolationSchedules) > 0 {
			checkViolationReplay(t, cfg, got)
		}
		if len(got.DeadlockSchedules) > 0 {
			checkDeadlockReplay(t, cfg, got)
		}
	}
}

// assertVerdictParity requires got and ref to agree on safety and progress:
// both clean, or both flagging the same failure kinds.
func assertVerdictParity(t *testing.T, got, ref *Result) {
	t.Helper()
	if got.Ok() != ref.Ok() {
		t.Fatalf("verdict mismatch: reduced Ok=%v, reference Ok=%v\nreduced: %+v\nreference violations=%v deadlocks=%v",
			got.Ok(), ref.Ok(), got, ref.Violations, ref.Deadlocks)
	}
	if (len(got.Violations) > 0) != (len(ref.Violations) > 0) {
		t.Fatalf("violation detection mismatch: reduced %d, reference %d",
			len(got.Violations), len(ref.Violations))
	}
	if (len(got.Deadlocks) > 0) != (len(ref.Deadlocks) > 0) {
		t.Fatalf("deadlock detection mismatch: reduced %d, reference %d",
			len(got.Deadlocks), len(ref.Deadlocks))
	}
}
