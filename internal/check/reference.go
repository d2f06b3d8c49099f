package check

import (
	"fmt"

	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/sim"
)

// ExhaustiveReference is the original stateless bounded-exhaustive search:
// a DFS over schedule prefixes that rebuilds the machine for every node by
// replaying its full prefix on a single recycled session. It ignores Memo,
// POR, MaxStates, and Parallel, and keeps no checkpoints.
//
// It is kept as the oracle for the stateful explorer: its branch enumeration
// defines the canonical search order, the differential tests pin Exhaustive
// against its verdicts, and the per-node O(depth) replay is the cost baseline
// the incremental explorer's MachineSteps are benchmarked against.
func ExhaustiveReference(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Session.Validate(); err != nil {
		return nil, err
	}
	e := &refExplorer{cfg: cfg, res: &Result{}, worker: engine.NewWorker()}
	defer e.worker.Close()
	if err := e.explore(nil); err != nil {
		return nil, err
	}
	return e.res, nil
}

type refExplorer struct {
	cfg    Config
	res    *Result
	worker *engine.Worker
}

// explore examines the execution reached by prefix, branching over every
// enabled action.
func (e *refExplorer) explore(prefix sim.Schedule) error {
	if e.res.Complete >= e.cfg.MaxSchedules {
		e.res.Truncated = true
		return nil
	}

	s, err := e.worker.Session(e.cfg.Session)
	if err != nil {
		return err
	}
	release := func() { e.worker.Release(s) }
	if err := refApplyPrefix(s, prefix, e.res); err != nil {
		release()
		// The prefix was validated when it was constructed; failure here is
		// an internal error.
		return fmt.Errorf("check: replaying prefix %v: %w", prefix, err)
	}
	if v := s.Violations(); len(v) > 0 {
		e.res.Violations = append(e.res.Violations,
			fmt.Sprintf("%s [schedule %s]", v[0], prefix))
		e.res.ViolationSchedules = append(e.res.ViolationSchedules, prefix.Clone())
		release()
		return nil
	}

	m := s.Machine()
	if m.AllDone() {
		e.res.Complete++
		release()
		return nil
	}
	poised := m.PoisedProcs()
	if len(poised) == 0 {
		e.res.Deadlocks = append(e.res.Deadlocks, prefix.String())
		e.res.DeadlockSchedules = append(e.res.DeadlockSchedules, prefix.Clone())
		release()
		return nil
	}
	if len(prefix) >= e.cfg.MaxDepth {
		e.res.Truncated = true
		e.res.DepthTruncated++
		release()
		return nil
	}

	// Snapshot the branch set before recursing: child explorations recycle
	// this worker's machine, so m is invalid once the first child runs.
	recoverable := e.cfg.Session.Algorithm.Recoverable()
	branches := make([]sim.Action, 0, 2*len(poised))
	for _, p := range poised {
		branches = append(branches, sim.Action{Proc: p})
		if recoverable && e.cfg.CrashesPerProc > 0 && m.Crashes(p) < e.cfg.CrashesPerProc {
			branches = append(branches, sim.Action{Proc: p, Crash: true})
		}
	}
	// Crash branching for parked processes (they have no step branch but
	// can still crash).
	if recoverable && e.cfg.CrashesPerProc > 0 {
		for p := 0; p < e.cfg.Session.Procs; p++ {
			if m.ProcDone(p) || !m.Parked(p) || m.Crashes(p) >= e.cfg.CrashesPerProc {
				continue
			}
			branches = append(branches, sim.Action{Proc: p, Crash: true})
		}
	}
	release()

	for _, act := range branches {
		next := append(prefix.Clone(), act)
		if err := e.explore(next); err != nil {
			return err
		}
	}
	return nil
}

func refApplyPrefix(s *mutex.Session, prefix sim.Schedule, res *Result) error {
	for _, act := range prefix {
		if _, err := s.Apply(act); err != nil {
			return err
		}
		res.MachineSteps++
		res.ReplaySteps++
	}
	return nil
}
