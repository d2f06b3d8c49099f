package adversary_test

import (
	"fmt"
	"testing"

	"rme/internal/adversary"
	"rme/internal/algorithms/grlock"
	"rme/internal/algorithms/mcs"
	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tournament"
	"rme/internal/algorithms/watree"
	"rme/internal/algorithms/yatree"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

func run(t *testing.T, cfg adversary.Config) *adversary.Report {
	t.Helper()
	adv, err := adversary.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer adv.Close()
	rep, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkSoundness asserts the Theorem 1 conditions on the survivors: never
// crashed, never entered the CS, and each charged at least one RMR per
// completed round (invariants I6, I7, I10).
func checkSoundness(t *testing.T, rep *adversary.Report) {
	t.Helper()
	if len(rep.InvariantViolations) > 0 {
		t.Fatalf("invariant violations: %v", rep.InvariantViolations)
	}
	for i, rmr := range rep.SurvivorRMRs {
		if rmr < rep.ViableRounds {
			t.Errorf("survivor p%d has %d RMRs over %d viable rounds (I10 violated)",
				rep.Survivors[i], rmr, rep.ViableRounds)
		}
	}
}

func TestAgainstWATreeShapesWithWidth(t *testing.T) {
	// The headline: against the Katzan–Morrison-style tree, the number of
	// rounds the adversary forces tracks the tree depth ceil(log_w n) —
	// wider words, fewer forced RMRs.
	const n = 64
	forced := make(map[word.Width]int)
	for _, w := range []word.Width{4, 8, 64} {
		rep := run(t, adversary.Config{
			Session: mutex.Config{
				Procs: n, Width: w, Model: sim.CC, Algorithm: watree.New(),
			},
		})
		checkSoundness(t, rep)
		forced[w] = rep.ForcedRMRs()
		if len(rep.Survivors) == 0 {
			t.Fatalf("w=%d: no survivors", w)
		}
	}
	if !(forced[4] > forced[64]) {
		t.Errorf("forced RMRs should shrink with width: w=4:%d w=8:%d w=64:%d",
			forced[4], forced[8], forced[64])
	}
	// Depth of the w=4 tree over 64 procs is 3; the adversary should force
	// at least one RMR per level on some survivor.
	if forced[4] < 3 {
		t.Errorf("w=4: forced only %d RMRs, want >= tree depth 3", forced[4])
	}
}

func TestAgainstGRLockForcesScan(t *testing.T) {
	rep := run(t, adversary.Config{
		Session: mutex.Config{
			Procs: 16, Width: 16, Model: sim.CC, Algorithm: grlock.New(),
		},
	})
	checkSoundness(t, rep)
	if rep.ForcedRMRs() < 2 {
		t.Errorf("forced RMRs = %d, want >= 2", rep.ForcedRMRs())
	}
}

func TestAgainstTournamentCC(t *testing.T) {
	rep := run(t, adversary.Config{
		Session: mutex.Config{
			Procs: 32, Width: 8, Model: sim.CC, Algorithm: tournament.New(),
		},
	})
	checkSoundness(t, rep)
	// Binary tree over 32 procs: depth 5; expect several forced rounds.
	if rep.ForcedRMRs() < 3 {
		t.Errorf("forced RMRs = %d, want >= 3 against a binary tournament", rep.ForcedRMRs())
	}
}

func TestHidingKeepsActiveAgainstRSpin(t *testing.T) {
	// All processes CAS the same cell: a high-contention round. Failed CAS
	// steps are invisible, so the hiding search must succeed and keep one
	// process active after its RMR.
	rep := run(t, adversary.Config{
		Session: mutex.Config{
			Procs: 8, Width: 8, Model: sim.CC, Algorithm: rspin.New(),
		},
		K: 4,
	})
	checkSoundness(t, rep)
	if rep.HidingAttempts == 0 {
		t.Fatal("expected at least one hiding attempt against a single-cell CAS lock")
	}
	if rep.HidingWins == 0 {
		t.Error("failed-CAS hiding should succeed")
	}
}

func TestMCSWithoutCrashesCollapses(t *testing.T) {
	// The §1.1 narrative: FAS hands every process its predecessor, and
	// without crash steps nothing can be hidden — the active set collapses
	// quickly and hiding verification rejects the FAS chain.
	rep := run(t, adversary.Config{
		Session: mutex.Config{
			Procs: 12, Width: 8, Model: sim.CC, Algorithm: mcs.New(),
		},
		K: 4,
	})
	if len(rep.InvariantViolations) > 0 {
		t.Fatalf("invariant violations: %v", rep.InvariantViolations)
	}
	// The adversary must stay sound: since MCS cannot crash, hidden
	// processes can survive only if verification proves erasability.
	checkSoundness(t, rep)
}

func TestDSMModelRuns(t *testing.T) {
	rep := run(t, adversary.Config{
		Session: mutex.Config{
			Procs: 16, Width: 4, Model: sim.DSM, Algorithm: watree.New(),
		},
	})
	checkSoundness(t, rep)
	if len(rep.Rounds) == 0 {
		t.Fatal("no rounds completed in DSM model")
	}
}

func TestRoundReportsConsistent(t *testing.T) {
	rep := run(t, adversary.Config{
		Session: mutex.Config{
			Procs: 32, Width: 4, Model: sim.CC, Algorithm: watree.New(),
		},
	})
	prev := rep.Procs
	for _, r := range rep.Rounds {
		if r.ActiveBefore > prev {
			t.Errorf("round %d: actives grew: %d -> %d", r.Index, prev, r.ActiveBefore)
		}
		if r.ActiveAfter > r.ActiveBefore {
			t.Errorf("round %d: actives grew within round", r.Index)
		}
		if r.Kind != adversary.LowContention && r.Kind != adversary.HighContention {
			t.Errorf("round %d: bad kind", r.Index)
		}
		prev = r.ActiveAfter
	}
}

func TestForcedRMRsGrowWithN(t *testing.T) {
	// Fixed narrow width, growing n: the forced RMR count must not shrink
	// (the log_w n shape in the n direction).
	measure := func(n int) int {
		rep := run(t, adversary.Config{
			Session: mutex.Config{
				Procs: n, Width: 4, Model: sim.CC, Algorithm: watree.New(),
			},
		})
		checkSoundness(t, rep)
		return rep.ForcedRMRs()
	}
	small, large := measure(8), measure(128)
	if large < small {
		t.Errorf("forced RMRs shrank with n: n=8:%d n=128:%d", small, large)
	}
	if large < 3 {
		t.Errorf("n=128, w=4: forced %d RMRs, want >= depth-ish", large)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[adversary.Status]string{
		adversary.Active:   "active",
		adversary.Blocked:  "blocked",
		adversary.Finished: "finished",
		adversary.Removed:  "removed",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
	if adversary.LowContention.String() != "low" || adversary.HighContention.String() != "high" {
		t.Error("round kind names")
	}
}

func ExampleReport_ForcedRMRs() {
	adv, err := adversary.New(adversary.Config{
		Session: mutex.Config{
			Procs: 16, Width: 4, Model: sim.CC, Algorithm: watree.New(),
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer adv.Close()
	rep, err := adv.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(rep.ForcedRMRs() >= 2)
	// Output: true
}

func TestAdversaryMatrix(t *testing.T) {
	// Soundness across the whole algorithm suite and both models: whatever
	// the algorithm, the reported survivors must satisfy the Theorem 1
	// side conditions (I6/I7/I10) and the audits must be clean.
	algs := []mutex.Algorithm{
		watree.New(), watree.New(watree.WithFanout(2)), grlock.New(),
		rspin.New(), tournament.New(), yatree.New(), mcs.New(),
	}
	for _, alg := range algs {
		alg := alg
		for _, model := range []sim.Model{sim.CC, sim.DSM} {
			model := model
			t.Run(alg.Name()+"/"+model.String(), func(t *testing.T) {
				rep := run(t, adversary.Config{
					Session: mutex.Config{
						Procs: 24, Width: 8, Model: model, Algorithm: alg,
					},
					K: 6,
				})
				checkSoundness(t, rep)
			})
		}
	}
}

func TestAdversaryAgainstFastPath(t *testing.T) {
	// The fast path's fastOwner cell is a single CAS hotspot: the adversary
	// should reach a high-contention round there and still stay sound.
	rep := run(t, adversary.Config{
		Session: mutex.Config{
			Procs: 16, Width: 8, Model: sim.CC,
			Algorithm: watree.New(watree.WithFastPath()),
		},
		K: 4,
	})
	checkSoundness(t, rep)
	if rep.HidingAttempts == 0 {
		t.Log("no hiding attempt reached (scheduling-dependent); rounds:", len(rep.Rounds))
	}
}

func TestLemma6DecayRate(t *testing.T) {
	// Lemma 6: n_i >= n_{i-1}/(64 w^{d+1}) - 2 — the active set shrinks by
	// at most a polynomial-in-w factor per round, which is what makes
	// Ω(log_w n) rounds possible. Check the operational analogue on the
	// watree constructions: every round retains at least a 1/(64·w²)
	// fraction of the actives (minus the additive slack), for every (n, w).
	//
	// At the first four points n < 64·w², so every bound is negative and the
	// check cannot fail there. At (1024, 2) the first round's bound is
	// 1024/256 − 2 = 2, so it can; that point must have a positive bound,
	// and its construction is the one that stops at the round cap (16
	// rounds, 64 actives left), which it must report.
	for _, tc := range []struct {
		n      int
		w      word.Width
		binds  bool
		capped bool
	}{
		{64, 4, false, false}, {256, 4, false, false}, {256, 8, false, false}, {128, 16, false, false},
		{1024, 2, true, true},
	} {
		rep := run(t, adversary.Config{
			Session: mutex.Config{
				Procs: tc.n, Width: tc.w, Model: sim.CC, Algorithm: watree.New(),
			},
		})
		checkSoundness(t, rep)
		bound := 64 * int(tc.w) * int(tc.w)
		positive := false
		for _, r := range rep.Rounds {
			min := r.ActiveBefore/bound - 2
			positive = positive || min > 0
			if r.ActiveAfter < min {
				t.Errorf("n=%d w=%d round %d: active %d -> %d, below the Lemma 6 analogue %d",
					tc.n, tc.w, r.Index, r.ActiveBefore, r.ActiveAfter, min)
			}
		}
		if positive != tc.binds {
			t.Errorf("n=%d w=%d: a positive bound in some round: %v, want %v", tc.n, tc.w, positive, tc.binds)
		}
		if rep.RoundCapped != tc.capped {
			t.Errorf("n=%d w=%d: RoundCapped %v after %d rounds, want %v", tc.n, tc.w, rep.RoundCapped, len(rep.Rounds), tc.capped)
		}
	}
}
