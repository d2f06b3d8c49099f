package adversary_test

import (
	"fmt"
	"testing"

	"rme"
	"rme/internal/adversary"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// FuzzAdversary property-tests the lower-bound construction over random
// configurations: any registry algorithm, n from 2 to 64, w from 2 to 64,
// CC or DSM, and K from 0 (the default) to n. Configurations adversary.New
// rejects (ids or tickets that do not fit the word) are skipped. It asserts:
//   - checkSoundness: a clean audit, and every survivor charged at least one
//     RMR per viable round (I6, I10);
//   - when the last round was viable, the final schedule replays on a fresh
//     traced session under the rule rmeadversary -trace uses (every action
//     applies, and every step is taken by a poised process), and at the end
//     of that one clean run each survivor has exactly its reported RMR
//     count, has never crashed or finished, and at no point reached the CS.
//     That checks the construction's thousands of Reset replays against a
//     machine that never saw one;
//   - every erasure adopted by patching the live session leaves it equal to
//     the session buildWithout replays (adversary.CheckPatches).
//
// The seed corpus (n <= 32) runs with the ordinary tests; its first entry is
// the n=16 rmeadversary anchor of the perf ledger.
func FuzzAdversary(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.alg, s.n, s.w, s.dsm, s.k)
	}
	f.Fuzz(func(t *testing.T, algSel, nSel, wSel uint8, dsm bool, kSel uint8) {
		cfg := fuzzConfig(algSel, nSel, wSel, dsm, kSel)
		session := cfg.Session
		adv, err := adversary.New(cfg)
		if err != nil {
			t.Skipf("%s n=%d w=%d: %v", session.Algorithm.Name(), session.Procs, session.Width, err)
		}
		defer adv.Close()
		adversary.CheckPatches(t, adv)
		rep, err := adv.Run()
		if err != nil {
			t.Fatalf("%s n=%d w=%d %s K=%d: %v", session.Algorithm.Name(), session.Procs, session.Width, session.Model, cfg.K, err)
		}
		checkSoundness(t, rep)
		if rep.ViableRounds == len(rep.Rounds) {
			replaySurvivors(t, session, rep)
		}
	})
}

// fuzzSeed is one FuzzAdversary input; the algorithm selector indexes
// rme.AlgorithmNames().
type fuzzSeed struct {
	alg, n, w uint8
	dsm       bool
	k         uint8
}

var fuzzSeeds = []fuzzSeed{
	{8, 14, 2, false, 0},  // watree n=16 w=4 CC (ledger anchor)
	{8, 14, 2, true, 0},   // watree n=16 w=4 DSM
	{8, 30, 6, false, 6},  // watree n=32 w=8 K=6
	{9, 22, 6, true, 6},   // watree2 n=24 w=8 DSM K=6
	{10, 14, 6, false, 4}, // watree-fast n=16 w=8 K=4
	{6, 22, 6, true, 6},   // grlock n=24 w=8 DSM K=6
	{7, 10, 14, false, 4}, // rspin n=12 w=16 K=4
	{2, 10, 14, false, 4}, // mcs n=12 w=16 K=4
	{5, 22, 6, true, 6},   // yatree n=24 w=8 DSM K=6
	{4, 22, 6, false, 6},  // tournament n=24 w=8 K=6
	{0, 6, 6, false, 0},   // tas n=8 w=8
	{1, 6, 6, true, 0},    // ticket n=8 w=8 DSM
	{3, 6, 6, false, 3},   // clh n=8 w=8 K=3
	{11, 6, 62, false, 0}, // qword n=8 w=64
	{11, 30, 6, false, 0}, // qword n=32 w=8: rejected, skipped
	{6, 10, 34, true, 1},  // grlock n=12 w=36 DSM K=1: owners of read cells (I8)
}

// fuzzConfig maps a FuzzAdversary input to its construction: any registry
// algorithm, n from 2 to 64, w from 2 to 64, CC or DSM, and K from 0 (the
// default) to n.
func fuzzConfig(algSel, nSel, wSel uint8, dsm bool, kSel uint8) adversary.Config {
	names := rme.AlgorithmNames()
	n := 2 + int(nSel)%63
	session := mutex.Config{
		Procs:     n,
		Width:     word.Width(2 + int(wSel)%63),
		Model:     sim.CC,
		Algorithm: rme.MustAlgorithm(names[int(algSel)%len(names)]),
	}
	if dsm {
		session.Model = sim.DSM
	}
	return adversary.Config{Session: session, K: int(kSel) % (n + 1)}
}

// TestErasureVerdictsOnFuzzSeeds runs the three-way erasure audit (fast
// path, buildWithout, string oracle) over FuzzAdversary's seed corpus.
func TestErasureVerdictsOnFuzzSeeds(t *testing.T) {
	var total adversary.AuditTally
	for _, s := range fuzzSeeds {
		cfg := fuzzConfig(s.alg, s.n, s.w, s.dsm, s.k)
		t.Run(fmt.Sprintf("%s/n=%d/w=%d/%s/K=%d", cfg.Session.Algorithm.Name(), cfg.Session.Procs, cfg.Session.Width, cfg.Session.Model, cfg.K), func(t *testing.T) {
			a, err := adversary.New(cfg)
			if err != nil {
				t.Skipf("rejected: %v", err)
			}
			a.Close()
			total.Add(adversary.AuditAgainstOracle(t, cfg))
		})
	}
	total.Require(t)
}

// replaySurvivors replays rep.Schedule on a fresh traced session and checks
// the reported survivors against that single clean run.
func replaySurvivors(t *testing.T, session mutex.Config, rep *adversary.Report) {
	t.Helper()
	s, err := mutex.NewSession(session)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Machine()
	for i, act := range rep.Schedule {
		if !act.Crash && !m.Poised(act.Proc) {
			t.Fatalf("action %d (%s): p%d is not poised", i, act, act.Proc)
		}
		if _, err := s.Apply(act); err != nil {
			t.Fatalf("action %d (%s): %v", i, act, err)
		}
		for _, p := range rep.Survivors {
			if tag := m.Tag(p); tag == mutex.TagCS || tag == mutex.TagExit {
				t.Fatalf("after action %d (%s): survivor p%d reached phase %s", i, act, p, mutex.TagName(tag))
			}
		}
	}
	for i, p := range rep.Survivors {
		if got := m.RMRs(p); got != rep.SurvivorRMRs[i] {
			t.Errorf("survivor p%d: %d RMRs on replay, reported %d", p, got, rep.SurvivorRMRs[i])
		}
		if m.Crashes(p) > 0 {
			t.Errorf("survivor p%d crashed %d times on replay", p, m.Crashes(p))
		}
		if m.ProcDone(p) {
			t.Errorf("survivor p%d finished on replay", p)
		}
	}
}
