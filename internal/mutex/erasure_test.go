package mutex_test

import (
	"fmt"
	"testing"

	"rme"
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
