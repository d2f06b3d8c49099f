package faults

import (
	"errors"
	"fmt"

	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/sim"
)

// Shrink delta-debugs a failing concrete schedule down to a minimal
// reproducer: the shortest action sequence it can find (within
// shrinkReplays candidate replays) that still violates the same oracle. The
// reduction has three phases — truncate to the earliest failing prefix,
// greedily drop crash steps (the paper's executions are judged by where
// crashes land, so a reproducer with fewer crashes is strictly more
// telling), then ddmin-style chunk removal over the remaining actions. Every
// candidate is validated by replay on a recycled engine worker; candidates
// whose actions no longer apply (a removed step changed who is poised)
// simply don't count as failing. The returned schedule replays
// byte-identically: apply it to a fresh session of the same configuration
// and the same oracle fires.
func Shrink(cfg mutex.Config, sched sim.Schedule, oracle Oracle) (sim.Schedule, int) {
	w := engine.NewWorker()
	defer w.Close()
	sh := &shrinker{cfg: cfg, oracle: oracle, worker: w, budget: shrinkReplays}

	// Phase 1: truncate to the earliest failing prefix (monotone oracles
	// fire mid-replay; end-state oracles keep the full length).
	cur, ok := sh.fails(sched)
	if !ok {
		// The schedule does not reproduce under this oracle (flaky capture
		// or replay-hostile failure, e.g. a decision-bound timeout); report
		// it unshrunk.
		return sched, sh.replays
	}

	// Phase 2: drop crash steps one at a time until none can go.
	cur = sh.dropCrashes(cur)

	// Phase 3: ddmin chunk removal over all actions.
	cur = sh.ddmin(cur)
	return cur, sh.replays
}

type shrinker struct {
	cfg     mutex.Config
	oracle  Oracle
	worker  *engine.Worker
	replays int
	budget  int
}

func (sh *shrinker) spent() bool { return sh.replays >= sh.budget }

// dropCrashes greedily removes crash actions (latest first, so recovery
// suffixes disappear before the crashes that caused them) until no single
// crash can be removed without losing the failure.
func (sh *shrinker) dropCrashes(sched sim.Schedule) sim.Schedule {
	for {
		removed := false
		for i := len(sched) - 1; i >= 0; i-- {
			if !sched[i].Crash || sh.spent() {
				continue
			}
			cand := without(sched, i, i+1)
			if next, ok := sh.fails(cand); ok {
				sched = next
				removed = true
				break
			}
		}
		if !removed {
			return sched
		}
	}
}

// ddmin is the classic delta-debugging reduction: try removing chunks at
// decreasing granularity until the schedule is 1-minimal with respect to
// chunk removal (or the replay budget runs out).
func (sh *shrinker) ddmin(sched sim.Schedule) sim.Schedule {
	gran := 2
	for len(sched) > 1 && !sh.spent() {
		chunk := (len(sched) + gran - 1) / gran
		reduced := false
		for start := 0; start < len(sched); start += chunk {
			if sh.spent() {
				break
			}
			end := start + chunk
			if end > len(sched) {
				end = len(sched)
			}
			cand := without(sched, start, end)
			if len(cand) == 0 {
				continue
			}
			if next, ok := sh.fails(cand); ok {
				sched = next
				gran = 2
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}
		if chunk <= 1 {
			return sched
		}
		gran *= 2
		if gran > len(sched) {
			gran = len(sched)
		}
	}
	return sched
}

// fails replays a candidate, checking the oracle after every action and
// once more on the end state, and reports whether it fires. On failure it
// returns the candidate truncated to its earliest failing prefix (a removal
// that makes the violation happen sooner shrinks for free), or the whole
// candidate when only the end state fails. Each call is one counted replay.
func (sh *shrinker) fails(cand sim.Schedule) (sim.Schedule, bool) {
	sh.replays++
	s, err := sh.worker.Session(sh.cfg)
	if err != nil {
		return nil, false
	}
	defer sh.worker.Release(s)
	for i, act := range cand {
		if !applyAction(s, act) {
			return nil, false
		}
		// Mid-replay state: neither done nor stuck counts as partial.
		if detail := sh.oracle.Check(replayOutcome(s, false)); detail != "" {
			return cand[:i+1].Clone(), true
		}
	}
	if sh.oracle.Check(replayOutcome(s, true)) != "" {
		return cand.Clone(), true
	}
	return nil, false
}

// applyAction delivers one schedule action, reporting false when it no
// longer applies (the candidate diverged from the captured execution).
func applyAction(s *mutex.Session, act sim.Action) bool {
	// Steps in captured schedules always hit poised processes; a parked
	// re-probe here means the candidate diverged.
	if !act.Crash && !s.Machine().Poised(act.Proc) {
		return false
	}
	_, err := s.Apply(act)
	return err == nil
}

// replayOutcome snapshots a session mid- or post-replay for oracle checks.
// End-state semantics (stuck / partial classification) only apply when the
// candidate has been fully applied.
func replayOutcome(s *mutex.Session, atEnd bool) *Outcome {
	var err error
	if atEnd {
		m := s.Machine()
		switch {
		case m.AllDone():
			err = nil
		case m.Stuck():
			err = mutex.ErrStuck
		default:
			err = errPartial
		}
	} else {
		err = errPartial
	}
	return snapshot(s, err)
}

// ReplayTraced applies a concrete schedule to a fresh traced session of the
// given configuration and returns the replay's full step-level trace and
// its outcome — the verification half of the "(seed, schedule) reproduces
// the violation" contract. Campaigns force NoTrace for throughput, so this
// is how a failure's shrunken reproducer (or the probe run) gets its
// per-access story back for export (rmefault -trace). It errors if an
// action no longer applies, which means the schedule does not belong to
// this configuration.
func ReplayTraced(cfg mutex.Config, sched sim.Schedule) ([]sim.Event, *Outcome, error) {
	cfg.NoTrace = false
	s, err := mutex.NewSession(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	for i, act := range sched {
		if !applyAction(s, act) {
			return nil, nil, fmt.Errorf("faults: action %d (%s) does not apply", i, act)
		}
	}
	events := append([]sim.Event(nil), s.Machine().Trace()...)
	return events, replayOutcome(s, true), nil
}

// without returns sched with [start, end) removed.
func without(sched sim.Schedule, start, end int) sim.Schedule {
	out := make(sim.Schedule, 0, len(sched)-(end-start))
	out = append(out, sched[:start]...)
	return append(out, sched[end:]...)
}

// errIsReplayable reports whether a drive error class reproduces under
// concrete-schedule replay (decision-bound timeouts do not: the bound is a
// property of the driving policy, not of the schedule).
func errIsReplayable(err error) bool {
	return !errors.Is(err, ErrStepBound) && !errors.Is(err, sim.ErrMaxSteps)
}
