package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"rme/internal/mutex"
	"rme/internal/sim"
)

// Victim selection modes for a planned crash. Non-negative victims name a
// process id directly; the modes below resolve against the live execution at
// injection time (deterministically, so plans replay byte-identically).
const (
	// VictimScheduled crashes the process the scheduler was about to step;
	// the crash replaces that step and consumes its decision index — the
	// paper's "about to perform a step, it may instead be forced to perform a
	// crash step".
	VictimScheduled = -1
	// VictimParked crashes the lowest-id parked process, if any (a recovery
	// window the poised-process sweeps cannot reach); the scheduled step
	// still happens.
	VictimParked = -2
	// VictimAll crashes every live process at once — the system-wide failure
	// model the paper contrasts with its individual-crash model (§4).
	VictimAll = -3
	// VictimRandom crashes a uniformly random live process, drawn from the
	// plan's seeded stream (random plans only).
	VictimRandom = -4
)

// Crash is one planned crash injection: at scheduler decision index At,
// crash Victim (a process id or a Victim* mode) instead of / in addition to
// the scheduled step.
type Crash struct {
	At     int `json:"at"`
	Victim int `json:"victim"`
}

// String renders the crash compactly ("@17:scheduled", "@4:p2", "@9:all").
func (c Crash) String() string {
	switch c.Victim {
	case VictimScheduled:
		return fmt.Sprintf("@%d:scheduled", c.At)
	case VictimParked:
		return fmt.Sprintf("@%d:parked", c.At)
	case VictimAll:
		return fmt.Sprintf("@%d:all", c.At)
	case VictimRandom:
		return fmt.Sprintf("@%d:random", c.At)
	default:
		return fmt.Sprintf("@%d:p%d", c.At, c.Victim)
	}
}

// Plan is one replayable fault-injected run: a deterministic base scheduling
// policy (round-robin, or seeded-random when Seed >= 0) plus crash
// injections at decision indices. A Plan plus a mutex.Config fully
// determines the execution, so every campaign failure reproduces from the
// plan alone; the concrete sim.Schedule the run produced is what the
// shrinker then minimizes.
type Plan struct {
	// Seed selects the base policy: < 0 is round-robin, >= 0 drives a
	// seeded-random scheduler (the stream also resolves VictimRandom picks).
	Seed int64 `json:"seed"`
	// Crashes are the planned injections, ascending by At.
	Crashes []Crash `json:"crashes,omitempty"`
}

// String renders the plan ("rr @3:scheduled @9:parked" / "seed=41 @12:random").
func (pl Plan) String() string {
	var b strings.Builder
	if pl.Seed < 0 {
		b.WriteString("rr")
	} else {
		fmt.Fprintf(&b, "seed=%d", pl.Seed)
	}
	for _, c := range pl.Crashes {
		b.WriteByte(' ')
		b.WriteString(c.String())
	}
	return b.String()
}

// ErrStepBound reports that a run exceeded the campaign's decision bound
// without finishing — the operational form of a deadlock-freedom violation
// (either a true deadlock that parks nobody, or a livelock).
var ErrStepBound = errors.New("faults: decision bound exceeded (livelock or starvation)")

// drive executes the plan on a fresh session, stopping after bound
// scheduler decisions. It returns nil on a completed run; mutex.ErrStuck,
// ErrStepBound, or a machine error otherwise. Safety violations are not
// errors here — the oracles read them from the session afterwards. observe,
// when non-nil, is called with every stepped decision's event (the probe
// uses it to map decision indices to RMR-incurring steps).
func (pl Plan) drive(s *mutex.Session, bound int, observe func(decision int, ev sim.Event)) error {
	pending := make(map[int][]int, len(pl.Crashes)) // decision -> victims
	for _, c := range pl.Crashes {
		pending[c.At] = append(pending[c.At], c.Victim)
	}
	var rng *rand.Rand
	if pl.Seed >= 0 {
		rng = rand.New(rand.NewSource(pl.Seed))
	}
	m := s.Machine()
	decision := 0
	for !m.AllDone() {
		if decision >= bound {
			return ErrStepBound
		}
		poised := m.PoisedProcs()
		if len(poised) == 0 {
			return mutex.ErrStuck
		}
		// Pick the process to step: seeded-random, or round-robin (the first
		// poised process by id; combined with the sweep-free loop this is the
		// lowest-id-first fair policy, which visits every process because
		// stepping p usually re-poises a successor).
		var p int
		if rng != nil {
			p = poised[rng.Intn(len(poised))]
		} else {
			p = poised[decision%len(poised)]
		}
		victims, planned := pending[decision]
		if planned {
			delete(pending, decision)
			stepConsumed, err := pl.inject(s, victims, p, rng)
			if err != nil {
				return err
			}
			if stepConsumed {
				decision++
				continue
			}
			if !m.Poised(p) {
				// The injection crashed (or woke) the chosen process; the
				// decision still counts, but there is nothing left to step.
				decision++
				continue
			}
		}
		ev, err := s.StepProc(p)
		if err != nil {
			return err
		}
		if observe != nil {
			observe(decision, ev)
		}
		decision++
	}
	return nil
}

// inject delivers the planned crashes for one decision. It reports whether
// the injection consumed the decision's step (VictimScheduled replaces it).
func (pl Plan) inject(s *mutex.Session, victims []int, scheduled int, rng *rand.Rand) (bool, error) {
	m := s.Machine()
	consumed := false
	for _, v := range victims {
		switch v {
		case VictimScheduled:
			if _, err := s.CrashProc(scheduled); err != nil {
				return consumed, err
			}
			consumed = true
		case VictimParked:
			for q := 0; q < s.Config().Procs; q++ {
				if !m.ProcDone(q) && m.Parked(q) {
					if _, err := s.CrashProc(q); err != nil {
						return consumed, err
					}
					break
				}
			}
		case VictimAll:
			if err := s.CrashAllProcs(); err != nil {
				return consumed, err
			}
		case VictimRandom:
			if rng == nil {
				return consumed, fmt.Errorf("faults: VictimRandom in a round-robin plan")
			}
			var live []int
			for q := 0; q < s.Config().Procs; q++ {
				if !m.ProcDone(q) {
					live = append(live, q)
				}
			}
			if len(live) == 0 {
				continue
			}
			if _, err := s.CrashProc(live[rng.Intn(len(live))]); err != nil {
				return consumed, err
			}
		default:
			if v < 0 || v >= s.Config().Procs {
				return consumed, fmt.Errorf("faults: crash victim %d out of range", v)
			}
			if m.ProcDone(v) {
				continue // the victim already finished; nothing to crash
			}
			if _, err := s.CrashProc(v); err != nil {
				return consumed, err
			}
		}
	}
	return consumed, nil
}

// sortCrashes orders a plan's crashes ascending by decision index (stable on
// ties), the canonical form sources must emit.
func sortCrashes(cs []Crash) {
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].At < cs[j].At })
}
