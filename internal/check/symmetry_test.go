package check_test

import (
	"bytes"
	"testing"

	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/yatree"
	"rme/internal/mutex"
	"rme/internal/sim"
)

// walkStates enumerates reachable session states (deduplicated by plain
// StateKey) up to limit, invoking visit with the schedule that reached each
// state and a live session positioned there. The walk is replay-based — a
// fresh session per node, replayed through Session.Replay so the safety
// monitor sees every step — so it stays independent of the explorer
// machinery it is used to validate.
func walkStates(t *testing.T, cfg mutex.Config, crashes, limit int, visit func(sim.Schedule, *mutex.Session)) int {
	t.Helper()
	seen := make(map[sim.Fingerprint]bool)
	recoverable := cfg.Algorithm.Recoverable()
	var rec func(sched sim.Schedule)
	rec = func(sched sim.Schedule) {
		if len(seen) >= limit || t.Failed() {
			return
		}
		s, err := mutex.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Replay(sched); err != nil {
			s.Close()
			t.Fatalf("applying %v: %v", sched, err)
		}
		key := s.StateKey(0)
		if seen[key] {
			s.Close()
			return
		}
		seen[key] = true
		visit(sched, s)
		m := s.Machine()
		var branches []sim.Action
		for _, p := range m.PoisedProcs() {
			branches = append(branches, sim.Action{Proc: p})
			if recoverable && crashes > 0 && m.Crashes(p) < crashes {
				branches = append(branches, sim.Action{Proc: p, Crash: true})
			}
		}
		if recoverable && crashes > 0 {
			for p := 0; p < cfg.Procs; p++ {
				if !m.ProcDone(p) && m.Parked(p) && m.Crashes(p) < crashes {
					branches = append(branches, sim.Action{Proc: p, Crash: true})
				}
			}
		}
		s.Close()
		for _, act := range branches {
			rec(append(sched.Clone(), act))
		}
	}
	rec(nil)
	return len(seen)
}

// renameSchedule applies a process permutation to every action (nil = id).
func renameSchedule(sched sim.Schedule, procTo []int) sim.Schedule {
	if procTo == nil {
		return sched
	}
	out := make(sim.Schedule, len(sched))
	for i, act := range sched {
		out[i] = sim.Action{Proc: procTo[act.Proc], Crash: act.Crash}
	}
	return out
}

// TestSymmetryOracle is the ground-truth check for every declared group
// element: for each reachable state s (via schedule σ) and each declared
// permutation π, the π-variant canonical encoding of s must byte-equal the
// plain canonical encoding of the state actually reached by running the
// π-renamed schedule, the safety monitor's CS owner must map through π, and
// the canonical state key must equal the brute-force minimum of the renamed
// runs' plain StateKeys. Declarations are claims; this test is the evidence.
// Each case must walk at least one state with a CS owner, so the owner check
// is not vacuous.
func TestSymmetryOracle(t *testing.T) {
	const seed = 0x5eed
	cases := []struct {
		name    string
		cfg     mutex.Config
		crashes int
		limit   int
	}{
		{"rspin-n2c1", mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: rspin.New()}, 1, 300},
		{"rspin-n3c1", mutex.Config{Procs: 3, Width: 8, Model: sim.CC, Algorithm: rspin.New()}, 1, 250},
		{"rspin-n3-dsm", mutex.Config{Procs: 3, Width: 8, Model: sim.DSM, Algorithm: rspin.New()}, 0, 250},
		{"yatree-n2", mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: yatree.New()}, 0, 300},
		{"yatree-n3", mutex.Config{Procs: 3, Width: 8, Model: sim.CC, Algorithm: yatree.New()}, 0, 400},
		{"yatree-n4", mutex.Config{Procs: 4, Width: 8, Model: sim.CC, Algorithm: yatree.New()}, 0, 250},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe, err := mutex.NewSession(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			order := probe.Machine().NumVariants(probe.Symmetry())
			probe.Close()
			if order < 2 {
				t.Fatalf("expected a declared symmetry group, got order %d", order)
			}
			owned := 0
			states := walkStates(t, tc.cfg, tc.crashes, tc.limit, func(sched sim.Schedule, s *mutex.Session) {
				if s.CSOwner() >= 0 {
					owned++
				}
				sym := s.Symmetry()
				m := s.Machine()
				canonical, _ := s.CanonicalStateKey(seed)
				var minKey sim.Fingerprint
				for i := 0; i < m.NumVariants(sym); i++ {
					procTo := m.VariantProcMap(sym, i)
					s2, err := mutex.NewSession(tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					renamed := renameSchedule(sched, procTo)
					if err := s2.Replay(renamed); err != nil {
						s2.Close()
						t.Fatalf("variant %d: renamed schedule %v not runnable: %v", i, renamed, err)
					}
					enc := m.CanonicalStateVariant(sym, i, nil)
					got := s2.Machine().CanonicalState(nil)
					if !bytes.Equal(enc, got) {
						s2.Close()
						t.Fatalf("variant %d of state after %v: encoding mismatch vs renamed run %v",
							i, sched, renamed)
					}
					wantOwner := s.CSOwner()
					if wantOwner >= 0 && procTo != nil {
						wantOwner = procTo[wantOwner]
					}
					if s2.CSOwner() != wantOwner {
						s2.Close()
						t.Fatalf("variant %d after %v: CS owner %d, want %d", i, sched, s2.CSOwner(), wantOwner)
					}
					key := s2.StateKey(seed)
					if i == 0 || key.Less(minKey) {
						minKey = key
					}
					s2.Close()
				}
				if canonical != minKey {
					t.Fatalf("canonical key %v != brute-force min %v (state after %v)", canonical, minKey, sched)
				}
			})
			if states < 50 {
				t.Fatalf("walk covered only %d states; bounds too tight to mean anything", states)
			}
			if owned == 0 {
				t.Fatalf("none of the %d walked states has a CS owner; the owner check saw nothing", states)
			}
		})
	}
}
