package mutex_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rme"
	"rme/internal/algtest"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// determined renders what equal responses must leave unchanged for q: its
// done flag, steps, crashes, phase tag and pending operation.
func determined(m *sim.Machine, q int) string {
	out := fmt.Sprintf("done=%v steps=%d crashes=%d tag=%d", m.ProcDone(q), m.ProcSteps(q), m.Crashes(q), m.Tag(q))
	if po, ok := m.Pending(q); ok {
		if po.Wait {
			return out + " wait"
		}
		return out + fmt.Sprintf(" pending=%d %s spin=%v", po.Cell.CellID(), po.Op, po.Spin)
	}
	return out
}

// TestErasureMatchesSessionReplay is the property behind the adversary's
// fast erasure audit, over every registry algorithm, both models and random
// crashy schedules (crashes also hit parked processes). At evenly spaced
// points of each schedule and for each process p, whenever sim.Erasure
// reports that the log replays without p with every response equal, a real
// Session.Replay of the schedule restricted to everyone but p must apply,
// leave each other process's done flag, steps, crashes, tag and pending
// operation as on the live session, and end with the RMR counters, parked
// flags and cache copies the Erasure computed. The fast path must decide
// somewhere, and some of its decisions must differ from the live session, so
// that the comparison is not vacuous.
func TestErasureMatchesSessionReplay(t *testing.T) {
	const n, cuts = 4, 16
	var decided, changed, declined int
	var e sim.Erasure
	for _, alg := range rme.Algorithms() {
		for _, model := range []sim.Model{sim.CC, sim.DSM} {
			for seed := int64(1); seed <= 8; seed++ {
				cfg := mutex.Config{Procs: n, Width: 16, Model: model, Algorithm: alg, Passes: 2, NoTrace: true}
				name := fmt.Sprintf("%s/%s/seed=%d", alg.Name(), model, seed)
				full := randomSchedule(t, cfg, seed)
				live, ref := newSession(t, cfg), newSession(t, cfg)
				done := 0
				for c := 1; c <= cuts; c++ {
					k := len(full) * c / cuts
					if err := live.Replay(full[done:k]); err != nil {
						t.Fatalf("%s: live replay to %d: %v", name, k, err)
					}
					done = k
					lm := live.Machine()
					for p := 0; p < n; p++ {
						if !e.Replay(lm, p) {
							declined++
							continue
						}
						decided++
						if err := ref.Reset(); err != nil {
							t.Fatal(err)
						}
						restricted := full[:k].Restrict(func(q int) bool { return q != p })
						if err := ref.Replay(restricted); err != nil {
							t.Fatalf("%s: cut %d without p%d: responses equal but the replay fails: %v", name, k, p, err)
						}
						rm := ref.Machine()
						others := word.NewBitset(n)
						differs := false
						for q := 0; q < n; q++ {
							if q == p {
								continue
							}
							others.Set(q)
							if got, want := determined(rm, q), determined(lm, q); got != want {
								t.Fatalf("%s: cut %d without p%d: p%d replays to %s, live %s", name, k, p, q, got, want)
							}
							if got, want := e.Parked(q), rm.Parked(q); got != want {
								t.Errorf("%s: cut %d without p%d: p%d parked %v, Session.Replay says %v", name, k, p, q, got, want)
							}
							for _, mod := range []sim.Model{sim.CC, sim.DSM} {
								if got, want := e.RMRsIn(mod, q), rm.RMRsIn(mod, q); got != want {
									t.Errorf("%s: cut %d without p%d: p%d %s RMRs %d, Session.Replay says %d", name, k, p, q, mod, got, want)
								}
								differs = differs || e.RMRsIn(mod, q) != lm.RMRsIn(mod, q)
							}
							differs = differs || e.Parked(q) != lm.Parked(q)
						}
						if !e.CachesAgree(rm, others) {
							t.Errorf("%s: cut %d without p%d: cache copies differ from Session.Replay's", name, k, p)
						}
						if differs || !e.CachesAgree(lm, others) {
							changed++
						}
					}
				}
			}
		}
	}
	t.Logf("%d replays decided (%d differing from the live session), %d declined or diverged", decided, changed, declined)
	if decided == 0 || changed == 0 || declined == 0 {
		t.Errorf("%d decided, %d of them differing from the live session, %d declined or diverged; want all three", decided, changed, declined)
	}
}

// randomSchedule returns the schedule of one crashy random run of cfg.
func randomSchedule(t *testing.T, cfg mutex.Config, seed int64) sim.Schedule {
	t.Helper()
	s := newSession(t, cfg)
	if err := s.RunRandom(seed, crashy); err != nil {
		t.Fatal(err)
	}
	return s.Machine().Schedule()
}

func newSession(t *testing.T, cfg mutex.Config) *mutex.Session {
	t.Helper()
	s, err := mutex.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestAdoptMatchesSessionReplay checks Session.AdoptErasure against a real
// replay, over the loop of TestErasureMatchesSessionReplay: every registry
// algorithm, both models, crashy schedules and evenly spaced cut points.
// For each p whose erasure sim.Erasure decides and the session accepts, a
// session replayed to the cut and patched must equal a Session.Replay of
// the schedule restricted to everyone but p in everything
// algtest.SessionDiff compares. The two must then go on alike: through one
// seeded continuation every returned Event, Seq included, must be equal,
// and so must erasure replays of the continued sessions, which read every
// entry of the patched response log. Both adoptions and declines must
// occur.
func TestAdoptMatchesSessionReplay(t *testing.T) {
	const n, cuts = 4, 16
	var adopted, declined int
	var e, ref sim.Erasure
	for _, alg := range rme.Algorithms() {
		for _, model := range []sim.Model{sim.CC, sim.DSM} {
			for seed := int64(1); seed <= 8; seed++ {
				cfg := mutex.Config{Procs: n, Width: 16, Model: model, Algorithm: alg, Passes: 2, NoTrace: true}
				name := fmt.Sprintf("%s/%s/seed=%d", alg.Name(), model, seed)
				full := randomSchedule(t, cfg, seed)
				live, patched, replayed := newSession(t, cfg), newSession(t, cfg), newSession(t, cfg)
				done := 0
				for c := 1; c <= cuts; c++ {
					k := len(full) * c / cuts
					if err := live.Replay(full[done:k]); err != nil {
						t.Fatalf("%s: live replay to %d: %v", name, k, err)
					}
					done = k
					for p := 0; p < n; p++ {
						if !e.Replay(live.Machine(), p) {
							continue
						}
						replayTo(t, patched, full[:k])
						if !e.Replay(patched.Machine(), p) {
							t.Fatalf("%s: cut %d without p%d: the erasure replay decides on one session and not on its twin", name, k, p)
						}
						ok, err := patched.AdoptErasure(&e, p)
						if err != nil {
							t.Fatalf("%s: cut %d: adopting the erasure of p%d: %v", name, k, p, err)
						}
						if !ok {
							declined++
							continue
						}
						adopted++
						replayTo(t, replayed, full[:k].Restrict(func(q int) bool { return q != p }))
						if d := algtest.SessionDiff(patched, replayed); d != "" {
							t.Fatalf("%s: cut %d: p%d erased by patching, compared with Session.Replay: %s", name, k, p, d)
						}
						continueAlike(t, patched, replayed, seed*int64(k+p))
						if d := algtest.SessionDiff(patched, replayed); d != "" {
							t.Fatalf("%s: cut %d: p%d erased by patching, after the continuation: %s", name, k, p, d)
						}
						for q := 0; q < n; q++ {
							got, want := e.Replay(patched.Machine(), q), ref.Replay(replayed.Machine(), q)
							if got != want {
								t.Fatalf("%s: cut %d: p%d erased by patching, then erasing p%d decides %v, on the replayed session %v", name, k, p, q, got, want)
							}
							for r := 0; got && r < n; r++ {
								if e.RMRsIn(sim.CC, r) != ref.RMRsIn(sim.CC, r) || e.RMRsIn(sim.DSM, r) != ref.RMRsIn(sim.DSM, r) || e.Parked(r) != ref.Parked(r) {
									t.Fatalf("%s: cut %d: p%d erased by patching, then erasing p%d leaves p%d otherwise than on the replayed session", name, k, p, q, r)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d erasures adopted by patching, %d declined", adopted, declined)
	if adopted == 0 || declined == 0 {
		t.Errorf("%d adopted, %d declined; want both", adopted, declined)
	}
}

// replayTo resets s and replays sched on it.
func replayTo(t *testing.T, s *mutex.Session, sched sim.Schedule) {
	t.Helper()
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := s.Replay(sched); err != nil {
		t.Fatal(err)
	}
}

// continueAlike drives a and b through one seeded random continuation,
// crashes included, and fails unless every action returns the same Event
// and error on both. The custom operations' transitions are left out of the
// comparison, since funcs never compare equal.
func continueAlike(t *testing.T, a, b *mutex.Session, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	am := a.Machine()
	for i := 0; i < 2000 && !am.AllDone(); i++ {
		poised := am.PoisedProcs()
		if len(poised) == 0 {
			return
		}
		act := sim.Action{Proc: poised[rng.Intn(len(poised))]}
		act.Crash = a.Config().Algorithm.Recoverable() && rng.Float64() < crashy.CrashProb && am.Crashes(act.Proc) < crashy.MaxCrashesPerProc
		ea, errA := a.Apply(act)
		eb, errB := b.Apply(act)
		ea.Op.F, eb.Op.F = nil, nil
		if fmt.Sprintf("%+v %v", ea, errA) != fmt.Sprintf("%+v %v", eb, errB) {
			t.Fatalf("continuation action %d (%s): event %+v, error %v; the replayed session gives %+v, %v", i, act, ea, errA, eb, errB)
		}
		if errA != nil {
			return
		}
	}
}
