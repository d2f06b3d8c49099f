package mutex_test

import (
	"fmt"
	"testing"

	"rme"
	"rme/internal/algtest"
	"rme/internal/mutex"
	"rme/internal/sim"
)

// TestRewindMatchesSessionReplay checks Session.Rewind against a real
// replay, over the loop of TestAdoptMatchesSessionReplay: every registry
// algorithm, both models, crashy schedules and evenly spaced cuts. For each
// pair of cuts k < d, a session that took its rewind point at k and went on
// to d is rewound to k and must equal a Session.Replay of the schedule's
// first k actions in everything algtest.SessionDiff compares, and in
// StateKey and CanonicalStateKey, on which the checker memoizes. The two
// must then go on alike: through one seeded continuation every returned
// Event, Seq included, must be equal. The rewound session is then rewound to
// k once more, from where the continuation left it, as the checker rewinds
// one session over and over, and must again equal the replay.
//
// Only tournament registers multi-cell waits, so only its sessions may
// decline, and a declined rewind must leave the session at d; declines must
// occur.
func TestRewindMatchesSessionReplay(t *testing.T) {
	const n = 4
	seeds, cuts := int64(3), 6
	if testing.Short() {
		seeds, cuts = 1, 4
	}
	var rewound, declined int
	for _, alg := range rme.Algorithms() {
		for _, model := range []sim.Model{sim.CC, sim.DSM} {
			for seed := int64(1); seed <= seeds; seed++ {
				cfg := mutex.Config{Procs: n, Width: 16, Model: model, Algorithm: alg, Passes: 2, NoTrace: true}
				name := fmt.Sprintf("%s/%s/seed=%d", alg.Name(), model, seed)
				full := randomSchedule(t, cfg, seed)
				live, replayed := newSession(t, cfg), newSession(t, cfg)
				for c := 0; c < cuts; c++ {
					k := len(full) * c / cuts
					for _, d := range []int{k + 1, len(full) * (c + 1) / cuts, len(full)} {
						if d <= k || d > len(full) {
							continue
						}
						replayTo(t, live, full[:k])
						pt := live.RewindPoint()
						if err := live.Replay(full[k:d]); err != nil {
							t.Fatalf("%s: replay from %d to %d: %v", name, k, d, err)
						}
						ok, err := live.Rewind(pt)
						if err != nil {
							t.Fatalf("%s: rewinding from %d to %d: %v", name, d, k, err)
						}
						if !ok {
							if alg.Name() != "tournament" {
								t.Fatalf("%s: rewinding from %d to %d declined", name, d, k)
							}
							replayTo(t, replayed, full[:d])
							if diff := algtest.SessionDiff(live, replayed); diff != "" {
								t.Fatalf("%s: a declined rewind from %d changed the session: %s", name, d, diff)
							}
							declined++
							continue
						}
						rewound++
						for round := 0; ; round++ {
							replayTo(t, replayed, full[:k])
							if diff := algtest.SessionDiff(live, replayed); diff != "" {
								t.Fatalf("%s: rewound from %d to %d (round %d), compared with Session.Replay: %s", name, d, k, round, diff)
							}
							const fpSeed = 0x5eed
							if live.StateKey(fpSeed) != replayed.StateKey(fpSeed) {
								t.Fatalf("%s: rewound from %d to %d (round %d): StateKey differs from Session.Replay's", name, d, k, round)
							}
							gk, gmap := live.CanonicalStateKey(fpSeed)
							wk, wmap := replayed.CanonicalStateKey(fpSeed)
							if gk != wk || fmt.Sprint(gmap) != fmt.Sprint(wmap) {
								t.Fatalf("%s: rewound from %d to %d (round %d): CanonicalStateKey differs from Session.Replay's", name, d, k, round)
							}
							continueAlike(t, live, replayed, seed*int64(k+d)+int64(round))
							if round == 1 {
								break
							}
							ok, err := live.Rewind(pt)
							if err != nil {
								t.Fatalf("%s: rewinding to %d again after the continuation: %v", name, k, err)
							}
							if !ok {
								if alg.Name() != "tournament" {
									t.Fatalf("%s: rewinding to %d again after the continuation declined", name, k)
								}
								declined++
								break
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d rewinds compared with Session.Replay, %d declined", rewound, declined)
	if rewound == 0 || declined == 0 {
		t.Errorf("%d rewound, %d declined; want both", rewound, declined)
	}
}
