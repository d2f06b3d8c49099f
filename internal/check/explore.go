package check

import (
	"fmt"

	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/telemetry"
)

// fpSeedSalt decorrelates the checker's fingerprint seed from the zero seed
// most callers pass, so visited-set keys are never raw unseeded hashes.
const fpSeedSalt = 0x524d_4543_4845_434b // "RMECHECK"

// maskProcs is the widest process count the uint64 sleep masks cover; POR
// degrades to off beyond it (exhaustive search at that scale is hopeless
// anyway, but the explorer must stay sound if asked).
const maskProcs = 64

// explorer is the stateful DFS for one root branch. It keeps a live session
// positioned at the current search node, stepping forward into each first
// child for free; backtracking restores the node from the checkpoint (a
// trailing session left at a shallower prefix) or, failing that, by
// replaying the prefix from the root — rebuilding the checkpoint en route so
// later siblings backtrack cheaply.
type explorer struct {
	cfg         Config
	res         *Result
	maxComplete int
	maxStates   int
	crashes     int
	fpSeed      uint64

	// visited maps canonical-state fingerprints to the sleep mask the state
	// was explored under (0 = explored in full). A revisit is pruned only if
	// its own mask covers the stored one; otherwise the state is re-explored
	// under the intersection, which shrinks monotonically, so the search
	// terminates. With Config.Symmetry the keys are canonical over the
	// declared group and the masks are stored in the canonical frame (bit p
	// describes canonical process p, i.e. procTo[p] of the minimizing
	// permutation).
	visited map[sim.Fingerprint]uint64

	// shared, when non-nil, is a read-only view of the visited sets sealed by
	// earlier waves of the shared-set search (see sharedStore). Lookups prune
	// exactly like private hits; this explorer's own discoveries go to
	// visited and are merged by the orchestrator after the wave completes.
	shared *sharedView

	// ancestors and budgetCut implement partial sealing for budget-cut
	// branches (shared mode only). ancestors is the stack of fingerprints
	// memoized on the current DFS path; at the first budget cut it holds
	// exactly the states whose recorded claims the cut left unwitnessed, and
	// noteBudgetCut deletes them from visited, so visited is the sealable
	// delta when the branch returns.
	ancestors []sim.Fingerprint
	budgetCut bool

	// path is the action sequence from the root to the live session's state.
	path sim.Schedule
	live *mutex.Session
	// worker supplies the live and checkpoint sessions and takes back the
	// ones restore drops.
	worker *engine.Worker
	// cp is the trailing checkpoint, if cp.sess is non-nil; its prefix
	// path[:cp.depth] matches the current path (restore drops it when it
	// belongs to an abandoned subtree, before it could go stale). A restore
	// consumes it and only a full-prefix replay rebuilds it, so one slot
	// holds every checkpoint the explorer has.
	cp checkpoint

	// tm mirrors res increments into live telemetry series; every handle is
	// a nil-safe no-op when Config.Telemetry is nil.
	tm checkTelemetry
}

// checkTelemetry holds the explorer's live metric handles. The counters
// track their Result counterparts exactly (same increment sites), so the
// final cumulative snapshot agrees with the merged Result field for field.
type checkTelemetry struct {
	visited, pruned, slept    *telemetry.Counter
	sharedPruned              *telemetry.Counter
	complete, depthTrunc      *telemetry.Counter
	machineSteps, replaySteps *telemetry.Counter
	depth                     *telemetry.Gauge
	restoreLen                *telemetry.Histogram
}

// restoreLenBounds buckets restore replay lengths: a fresh checkpoint bounds
// replays near snapshotInterval, so the tail buckets expose how often the
// explorer fell back to full-prefix replay.
var restoreLenBounds = []int64{1, 4, 16, 64, 256, 1024, 4096}

func newCheckTelemetry(reg *telemetry.Registry) checkTelemetry {
	return checkTelemetry{
		visited:      reg.Counter("check_states_visited"),
		pruned:       reg.Counter("check_states_pruned"),
		slept:        reg.Counter("check_sleep_pruned"),
		sharedPruned: reg.Counter("check_shared_pruned"),
		complete:     reg.Counter("check_schedules_complete"),
		depthTrunc:   reg.Counter("check_depth_truncated"),
		machineSteps: reg.Counter("check_machine_steps"),
		replaySteps:  reg.Counter("check_replay_steps"),
		depth:        reg.Gauge("check_frontier_depth"),
		restoreLen:   reg.Histogram("check_restore_replay_len", restoreLenBounds),
	}
}

// snapshotInterval is the checkpoint spacing K: restores replay at most ~K
// actions when the trailing checkpoint is fresh, and full-prefix replays
// rebuild it en route.
const snapshotInterval = 32

type checkpoint struct {
	depth int
	sess  *mutex.Session
}

func newExplorer(cfg Config, maxComplete, maxStates int) *explorer {
	e := &explorer{
		cfg:         cfg,
		res:         &Result{},
		maxComplete: maxComplete,
		maxStates:   maxStates,
		crashes:     crashLimit(cfg),
		fpSeed:      fpSeedSalt ^ uint64(cfg.Seed),
		worker:      engine.NewWorker(),
		tm:          newCheckTelemetry(cfg.Telemetry),
	}
	if cfg.Memo {
		e.visited = make(map[sim.Fingerprint]uint64)
	}
	return e
}

func (e *explorer) close() {
	if e.live != nil {
		e.live.Close()
	}
	if e.cp.sess != nil {
		e.cp.sess.Close()
	}
	e.worker.Close()
}

// run explores the subtree under one root action and returns the sub-result.
func (e *explorer) run(act sim.Action, sleep uint64) (*Result, error) {
	s, err := e.worker.Session(e.cfg.Session)
	if err != nil {
		return e.res, err
	}
	e.live = s
	if err := e.advance(act); err != nil {
		return e.res, err
	}
	return e.res, e.explore(sleep)
}

// advance executes act on the live session and extends the path.
func (e *explorer) advance(act sim.Action) error {
	if _, err := e.live.Apply(act); err != nil {
		// Branches are enumerated from enabled actions; failure to take one
		// is an internal error.
		return fmt.Errorf("check: applying %v after %v: %w", act, e.path, err)
	}
	e.res.MachineSteps++
	e.tm.machineSteps.Inc()
	e.path = append(e.path, act)
	return nil
}

// replay applies path[from:to] to s, which must be at state path[:from],
// and counts the replayed actions.
func (e *explorer) replay(s *mutex.Session, from, to int) error {
	if err := s.Replay(e.path[from:to]); err != nil {
		return fmt.Errorf("check: replaying prefix %v: %w", e.path[:to], err)
	}
	n := int64(to - from)
	e.res.MachineSteps += n
	e.res.ReplaySteps += n
	e.tm.machineSteps.Add(n)
	e.tm.replaySteps.Add(n)
	return nil
}

// restore repositions the live session at the current path (length target),
// abandoning whatever subtree state it holds. A checkpoint deeper than the
// target belongs to the abandoned subtree and is recycled first; a surviving
// checkpoint is consumed and advanced the remaining distance. Otherwise the
// live session replays the full prefix, and the checkpoint is rebuilt at the
// last snapshotInterval boundary below the target so the next backtrack to
// this neighborhood is cheap again.
func (e *explorer) restore(target int) error {
	if e.tm.restoreLen != nil {
		before := e.res.ReplaySteps
		defer func() { e.tm.restoreLen.Observe(e.res.ReplaySteps - before) }()
	}
	if e.cp.sess != nil && e.cp.depth > target {
		e.worker.Release(e.cp.sess)
		e.cp = checkpoint{}
	}
	if cp := e.cp; cp.sess != nil {
		e.cp = checkpoint{}
		e.worker.Release(e.live)
		e.live = cp.sess
		return e.replay(e.live, cp.depth, target)
	}
	c := target - target%snapshotInterval
	if c == target {
		c -= snapshotInterval
	}
	if c > 0 {
		cs, err := e.worker.Session(e.cfg.Session)
		if err != nil {
			return err
		}
		if err := e.replay(cs, 0, c); err != nil {
			e.worker.Release(cs)
			return err
		}
		e.cp = checkpoint{depth: c, sess: cs}
	}
	if err := e.live.Reset(); err != nil {
		return err
	}
	return e.replay(e.live, 0, target)
}

// explore examines the node the live session is positioned at (the state
// after path), branching over every enabled action not covered by the sleep
// set. Check order matches ExhaustiveReference (budget, violation, terminal,
// deadlock, depth), so with Memo and POR off the two produce identical
// results.
func (e *explorer) explore(sleep uint64) error {
	s := e.live
	if e.res.Complete >= e.maxComplete {
		e.res.Truncated = true
		e.noteBudgetCut()
		return nil
	}
	if v := s.Violations(); len(v) > 0 {
		e.res.Violations = append(e.res.Violations,
			fmt.Sprintf("%s [schedule %s]", v[0], e.path))
		e.res.ViolationSchedules = append(e.res.ViolationSchedules, e.path.Clone())
		return nil
	}
	var fp sim.Fingerprint
	var procTo []int
	if e.cfg.Memo {
		if e.res.StatesVisited >= e.maxStates {
			e.res.Truncated = true
			e.noteBudgetCut()
			return nil
		}
		if e.cfg.Symmetry {
			fp, procTo = s.CanonicalStateKey(e.fpSeed)
		} else {
			fp = s.StateKey(e.fpSeed)
		}
		// Sleep masks are stored and compared in the canonical frame: bit p of
		// a stored mask talks about canonical process p, which is procTo[p] in
		// this concrete state. A hit means the stored exploration covers an
		// isomorphic subtree, so subsumption transports along the isomorphism.
		canon := mapMask(sleep, procTo)
		if stored, ok := e.visited[fp]; ok {
			if stored&^canon == 0 {
				// Everything reachable here was explored under a sleep set no
				// larger than ours.
				e.res.StatesPruned++
				e.tm.pruned.Inc()
				return nil
			}
			canon &= stored
		}
		if e.shared != nil {
			prune, narrowed := e.shared.filter(fp, canon)
			if prune {
				e.res.StatesPruned++
				e.res.SharedPruned++
				e.tm.pruned.Inc()
				e.tm.sharedPruned.Inc()
				return nil
			}
			canon = narrowed
		}
		sleep = unmapMask(canon, procTo)
	}

	m := s.Machine()
	if m.AllDone() {
		e.res.Complete++
		e.tm.complete.Inc()
		e.memoize(fp, 0)
		return nil
	}
	poised := m.PoisedProcs()
	if len(poised) == 0 {
		e.res.Deadlocks = append(e.res.Deadlocks, e.path.String())
		e.res.DeadlockSchedules = append(e.res.DeadlockSchedules, e.path.Clone())
		e.memoize(fp, 0)
		return nil
	}
	depth := len(e.path)
	e.tm.depth.Max(int64(depth))
	if depth >= e.cfg.MaxDepth {
		// Not memoized: the subtree was cut, so a shallower revisit must not
		// be pruned against it.
		e.res.Truncated = true
		e.res.DepthTruncated++
		e.tm.depthTrunc.Inc()
		return nil
	}

	porOK := porEnabled(e.cfg, s)
	if !porOK {
		sleep = 0
	}
	e.memoize(fp, mapMask(sleep, procTo))
	pushed := e.shared != nil && e.cfg.Memo
	if pushed {
		e.ancestors = append(e.ancestors, fp)
	}

	var foots [maskProcs]mutex.StepFootprint
	var footOK uint64
	if porOK {
		footOK = footprints(s, poised, &foots)
	}
	branches, slept := appendBranches(make([]sim.Action, 0, 2*len(poised)), m, poised, sleep, e.crashes)
	e.res.SleepPruned += slept
	e.tm.slept.Add(int64(slept))

	var taken uint64
	for i, act := range branches {
		if i > 0 {
			if err := e.restore(depth); err != nil {
				return err
			}
		}
		var childSleep uint64
		if porOK && !act.Crash {
			childSleep = childSleepMask(act.Proc, sleep|taken, &foots, footOK,
				e.cfg.Session.Procs)
		}
		if err := e.advance(act); err != nil {
			return err
		}
		if err := e.explore(childSleep); err != nil {
			return err
		}
		e.path = e.path[:depth]
		if !act.Crash {
			taken |= 1 << uint(act.Proc)
		}
	}
	if pushed {
		e.ancestors = e.ancestors[:len(e.ancestors)-1]
	}
	return nil
}

// noteBudgetCut deletes from visited, at the first budget cut, the states
// whose subtrees the cut leaves incomplete: the memoized ancestors of the
// cut point. Their claims must not be sealed for other branches (the
// exploration that would witness them never finished); everything else in
// visited remains fully witnessed. Deleting them at the cut is final: once a
// cap fires, every later node returns at a budget check, before memoize or
// any visited or shared lookup, so later cuts see only a prefix of the same
// stack and the set a wave seals is visited as the branch leaves it.
func (e *explorer) noteBudgetCut() {
	if e.budgetCut || e.shared == nil {
		return
	}
	e.budgetCut = true
	for _, fp := range e.ancestors {
		delete(e.visited, fp)
	}
}

// memoize records fp as explored under the given sleep mask.
func (e *explorer) memoize(fp sim.Fingerprint, sleep uint64) {
	if !e.cfg.Memo {
		return
	}
	e.visited[fp] = sleep
	e.res.StatesVisited++
	e.tm.visited.Inc()
}

// mapMask transports a sleep mask into the canonical frame of the minimizing
// permutation: concrete process p becomes canonical process procTo[p]. A nil
// procTo (identity minimizer, or symmetry off) is free.
func mapMask(mask uint64, procTo []int) uint64 {
	if procTo == nil || mask == 0 {
		return mask
	}
	var out uint64
	for p := 0; p < len(procTo) && mask>>uint(p) != 0; p++ {
		if mask>>uint(p)&1 == 1 {
			out |= 1 << uint(procTo[p])
		}
	}
	return out
}

// unmapMask is the inverse of mapMask: canonical process procTo[p] becomes
// concrete process p.
func unmapMask(mask uint64, procTo []int) uint64 {
	if procTo == nil || mask == 0 {
		return mask
	}
	var out uint64
	for p, q := range procTo {
		if mask>>uint(q)&1 == 1 {
			out |= 1 << uint(p)
		}
	}
	return out
}

// childSleepMask propagates the sleep set across p's step: a process q
// stays asleep (or newly falls asleep, when its own step branch was already
// taken at this node) iff its pending step commutes with p's.
func childSleepMask(p int, avail uint64, foots *[maskProcs]mutex.StepFootprint, footOK uint64, procs int) uint64 {
	avail &^= 1 << uint(p)
	var mask uint64
	for q := 0; q < procs && avail>>uint(q) != 0; q++ {
		if avail>>uint(q)&1 == 1 && independentSteps(p, q, foots, footOK) {
			mask |= 1 << uint(q)
		}
	}
	return mask
}

// independentSteps reports whether the pending steps of p and q commute:
// both footprints are known and they target different cells or are both
// reads. Anything else — unknown footprints included — is treated as
// dependent, which costs only extra exploration, never soundness.
func independentSteps(p, q int, foots *[maskProcs]mutex.StepFootprint, footOK uint64) bool {
	if footOK>>uint(p)&1 == 0 || footOK>>uint(q)&1 == 0 {
		return false
	}
	fp, fq := foots[p], foots[q]
	return fp.Cell != fq.Cell || (!fp.Write && !fq.Write)
}

// crashLimit is the per-process crash count the search branches up to: the
// configured CrashesPerProc for recoverable algorithms, 0 otherwise.
func crashLimit(cfg Config) int {
	if !cfg.Session.Algorithm.Recoverable() {
		return 0
	}
	return cfg.CrashesPerProc
}

// porEnabled reports whether the sleep-set reduction applies at the state s
// holds. It turns itself off at states with a multi-cell waiter: a wake
// makes the waiter observe all watched cells at once, so two steps on
// distinct watched cells no longer commute.
func porEnabled(cfg Config, s *mutex.Session) bool {
	return cfg.POR && cfg.Session.Procs <= maskProcs && !s.HasMultiWait()
}

// appendBranches appends a node's branch set to dst in ExhaustiveReference
// order — per poised process its step then its crash, then crash branches
// for parked processes — and reports how many step branches the sleep mask
// skipped. Sleeping skips step branches only; crash branches are dependent
// with everything (they reset process state) and are never reduced. The
// root and every explorer node expand through this one rule.
func appendBranches(dst []sim.Action, m *sim.Machine, poised []int, sleep uint64, crashes int) ([]sim.Action, int) {
	slept := 0
	for _, p := range poised {
		if sleep>>uint(p)&1 == 1 {
			slept++
		} else {
			dst = append(dst, sim.Action{Proc: p})
		}
		if m.Crashes(p) < crashes {
			dst = append(dst, sim.Action{Proc: p, Crash: true})
		}
	}
	if crashes > 0 {
		for p := 0; p < m.Procs(); p++ {
			if m.ProcDone(p) || !m.Parked(p) || m.Crashes(p) >= crashes {
				continue
			}
			dst = append(dst, sim.Action{Proc: p, Crash: true})
		}
	}
	return dst, slept
}

// footprints records the pending step footprint of each poised process in
// foots and returns the mask of processes whose footprint is known.
func footprints(s *mutex.Session, poised []int, foots *[maskProcs]mutex.StepFootprint) uint64 {
	var ok uint64
	for _, p := range poised {
		if f, known := s.PendingFootprint(p); known {
			foots[p] = f
			ok |= 1 << uint(p)
		}
	}
	return ok
}
