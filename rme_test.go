package rme_test

import (
	"fmt"
	"strings"
	"testing"

	"rme"
)

func TestAlgorithmsRegistry(t *testing.T) {
	algs := rme.Algorithms()
	if len(algs) != 12 {
		t.Fatalf("registry has %d algorithms, want 12", len(algs))
	}
	for i := 1; i < len(algs); i++ {
		if algs[i-1].Name() >= algs[i].Name() {
			t.Errorf("registry not sorted: %q >= %q", algs[i-1].Name(), algs[i].Name())
		}
	}
	recoverable := 0
	for _, a := range algs {
		if a.Recoverable() {
			recoverable++
		}
	}
	if recoverable != 6 {
		t.Errorf("recoverable algorithms = %d, want 6", recoverable)
	}
}

func TestNewAlgorithm(t *testing.T) {
	for _, name := range []string{"tas", "ticket", "mcs", "clh", "tournament", "yatree", "grlock", "rspin", "watree", "watree2", "watree-fast", "qword"} {
		alg, err := rme.NewAlgorithm(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("%s: empty name", name)
		}
	}
	if _, err := rme.NewAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAlgorithm should panic on unknown name")
		}
	}()
	rme.MustAlgorithm("nope")
}

// TestAlgorithmNames: every name the CLIs list resolves, case-insensitively,
// to a distinct registry algorithm.
func TestAlgorithmNames(t *testing.T) {
	seen := map[string]string{}
	for _, name := range rme.AlgorithmNames() {
		alg, err := rme.NewAlgorithm(strings.ToUpper(name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if prev, ok := seen[alg.Name()]; ok {
			t.Errorf("%s and %s both resolve to %s", prev, name, alg.Name())
		}
		seen[alg.Name()] = name
	}
}

func TestSessionSmokeAllAlgorithms(t *testing.T) {
	for _, alg := range rme.Algorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			s, err := rme.NewSession(rme.Config{
				Procs: 4, Width: 16, Model: rme.CC, Algorithm: alg, Passes: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.RunRoundRobin(); err != nil {
				t.Fatal(err)
			}
			if s.MaxPassageRMRs(rme.CC) <= 0 {
				t.Error("no RMRs recorded")
			}
		})
	}
}

func TestExperimentsComplete(t *testing.T) {
	exps := rme.Experiments()
	if len(exps) != 13 {
		t.Fatalf("%d experiments, want 13 (E1-E8 + extensions E9-E13)", len(exps))
	}
	for i, e := range exps {
		want := fmt.Sprintf("E%d", i+1)
		if e.ID != want {
			t.Errorf("experiment %d id = %q, want %q", i, e.ID, want)
		}
		if e.Claim == "" || e.Title == "" {
			t.Errorf("%s: missing claim or title", e.ID)
		}
	}
	if _, ok := rme.FindExperiment("E5"); !ok {
		t.Error("E5 not found")
	}
	if _, ok := rme.FindExperiment("E99"); ok {
		t.Error("E99 found")
	}
}

func TestAdversaryFacade(t *testing.T) {
	adv, err := rme.NewAdversary(rme.AdversaryConfig{
		Session: rme.Config{
			Procs: 16, Width: 4, Model: rme.CC, Algorithm: rme.MustAlgorithm("watree"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer adv.Close()
	rep, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ForcedRMRs() < 2 {
		t.Errorf("forced RMRs = %d", rep.ForcedRMRs())
	}
}

func TestCheckFacade(t *testing.T) {
	res, err := rme.Exhaustive(rme.CheckConfig{
		Session:      rme.Config{Procs: 2, Width: 8, Model: rme.CC, Algorithm: rme.MustAlgorithm("tas")},
		MaxSchedules: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	sres, err := rme.Stress(rme.CheckConfig{
		Session:        rme.Config{Procs: 3, Width: 8, Model: rme.DSM, Algorithm: rme.MustAlgorithm("rspin")},
		CrashesPerProc: 1,
	}, 20, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := sres.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTheoreticalLowerBoundFacade(t *testing.T) {
	narrow := rme.TheoreticalLowerBound(4, 1<<16)
	wide := rme.TheoreticalLowerBound(64, 1<<16)
	if narrow <= wide {
		t.Errorf("bound should shrink with width: %v vs %v", narrow, wide)
	}
}

func TestWATreeFanoutFacade(t *testing.T) {
	if got := rme.WATree(2).Name(); !strings.Contains(got, "f=2") {
		t.Errorf("WATree(2).Name() = %q", got)
	}
	if got := rme.WATree(0).Name(); got != "watree" {
		t.Errorf("WATree(0).Name() = %q", got)
	}
}
