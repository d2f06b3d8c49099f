package faults

import (
	"errors"
	"fmt"

	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// Outcome is the observable result of one fault-injected run, snapshotted
// from the session before the engine recycles it. Oracles judge runs only
// through this view, so the same oracle works on campaign runs and on
// shrinker replays of concrete schedules.
type Outcome struct {
	// Cfg is the session configuration (defaults applied).
	Cfg mutex.Config
	// Err is the drive error: nil, mutex.ErrStuck, ErrStepBound, or a
	// machine/driver error.
	Err error
	// Violations are the driver's safety-monitor failures.
	Violations []string
	// Schedule is the concrete executed action sequence.
	Schedule sim.Schedule
	// MaxRMRCC/MaxRMRDSM are the worst per-passage RMR counts observed.
	MaxRMRCC, MaxRMRDSM int
	// CompletedPasses counts non-crash-terminated passages per process.
	CompletedPasses []int
	// AllDone reports whether every process finished its super-passages.
	AllDone bool
}

// snapshot captures the oracle-visible state of a driven session.
func snapshot(s *mutex.Session, driveErr error) *Outcome {
	return &Outcome{
		Cfg:             s.Config(),
		Err:             driveErr,
		Violations:      s.Violations(),
		Schedule:        s.Machine().Schedule(),
		MaxRMRCC:        s.MaxPassageRMRs(sim.CC),
		MaxRMRDSM:       s.MaxPassageRMRs(sim.DSM),
		CompletedPasses: s.CompletedPasses(),
		AllDone:         s.Machine().AllDone(),
	}
}

// Oracle is a pluggable invariant: Check returns "" when the run satisfies
// it, or a one-line diagnosis when it is violated.
type Oracle interface {
	Name() string
	Check(o *Outcome) string
}

// MutualExclusion flags runs on which the driver's safety monitors fired:
// two processes in the critical section at once, including the CSR form
// where a second process enters while a crashed holder still owns the CS.
type MutualExclusion struct{}

// Name identifies the oracle.
func (MutualExclusion) Name() string { return "mutual-exclusion" }

// Check reports the first monitor violation.
func (MutualExclusion) Check(o *Outcome) string {
	if len(o.Violations) > 0 {
		return o.Violations[0]
	}
	return ""
}

// DeadlockFree flags runs that wedged (no process could be scheduled) or
// exceeded the campaign's decision bound — the bounded operational form of
// the paper's deadlock-freedom liveness property.
type DeadlockFree struct{}

// Name identifies the oracle.
func (DeadlockFree) Name() string { return "deadlock-free" }

// Check reports stuck and bound-exceeded runs.
func (DeadlockFree) Check(o *Outcome) string {
	switch {
	case errors.Is(o.Err, mutex.ErrStuck):
		return fmt.Sprintf("execution stuck after %d actions (all live processes parked)", len(o.Schedule))
	case errors.Is(o.Err, ErrStepBound):
		return fmt.Sprintf("no completion within the decision bound (%d actions executed)", len(o.Schedule))
	case errors.Is(o.Err, sim.ErrMaxSteps):
		return fmt.Sprintf("machine step limit exceeded (%d actions executed)", len(o.Schedule))
	}
	return ""
}

// Reentry flags completed runs in which a process failed to finish all its
// super-passages — a crashed process that abandoned its interrupted
// super-passage instead of recovering, the completion half of the
// critical-section re-entry property.
type Reentry struct{}

// Name identifies the oracle.
func (Reentry) Name() string { return "cs-reentry" }

// Check verifies per-process super-passage completion on clean runs.
func (Reentry) Check(o *Outcome) string {
	if o.Err != nil {
		return "" // DeadlockFree owns failed runs
	}
	if !o.AllDone {
		return fmt.Sprintf("drive returned with unfinished processes after %d actions", len(o.Schedule))
	}
	for p, c := range o.CompletedPasses {
		if c < o.Cfg.Passes {
			return fmt.Sprintf("p%d completed %d super-passages, want %d (super-passage abandoned after a crash)",
				p, c, o.Cfg.Passes)
		}
	}
	return ""
}

// RMRBudget flags runs whose worst per-passage RMR count exceeds a ceiling.
// A ceiling of 0 disables the corresponding model's check.
type RMRBudget struct {
	CC, DSM int
}

// Name identifies the oracle.
func (b RMRBudget) Name() string { return "rmr-budget" }

// Check compares the run's worst passage against the ceilings.
func (b RMRBudget) Check(o *Outcome) string {
	if b.CC > 0 && o.MaxRMRCC > b.CC {
		return fmt.Sprintf("max passage cost %d CC-RMRs exceeds budget %d", o.MaxRMRCC, b.CC)
	}
	if b.DSM > 0 && o.MaxRMRDSM > b.DSM {
		return fmt.Sprintf("max passage cost %d DSM-RMRs exceeds budget %d", o.MaxRMRDSM, b.DSM)
	}
	return ""
}

// DefaultBudget returns the per-passage RMR ceiling asserted for a known
// algorithm at the given scale, or 0 (no budget) for algorithms without an
// established bound under the model. The ceilings are the paper's asymptotic
// bounds with generous constant headroom — they catch complexity
// regressions (a passage suddenly costing Θ(n) on a tree lock), not
// off-by-one tuning.
func DefaultBudget(alg mutex.Algorithm, n int, w word.Width, model sim.Model) int {
	if tree, ok := alg.(interface{ Fanout(word.Width, int) int }); ok {
		// Θ(log_f n) climb for the fan-out f the algorithm builds at this
		// scale (a fan-out below 2 is built as 2); crashes restart one level
		// and a fast path adds O(1).
		f := max(tree.Fanout(w, n), 2)
		return 16*(word.CeilLog(f, n)+1) + 24
	}
	log2 := word.CeilLog(2, n) + 1 // +1 guards the log = 0 edge at small n
	switch alg.Name() {
	case "qword":
		// Queue-word lock: O(1) enqueue plus a bounded handoff.
		return 64
	case "rspin", "grlock":
		// Recoverable spin/GR locks: O(n) handoff chains under contention.
		return 24*n + 64
	case "ticket", "tas":
		// Ticket/TAS: Θ(n) invalidation storms per handoff in CC; DSM
		// unbounded (non-local spinning), so no DSM budget.
		if model == sim.DSM {
			return 0
		}
		return 24*n + 64
	case "mcs", "clh":
		// Queue locks: O(1) per passage.
		return 48
	case "tournament", "yatree":
		// Binary arbitration trees: Θ(log n).
		return 16*log2 + 24
	default:
		return 0
	}
}

// DefaultOracles is the standard invariant set: mutual exclusion, bounded
// deadlock-freedom, re-entry completion, and — when budget ceilings are
// known for the algorithm — RMR budgets under both models.
func DefaultOracles(alg mutex.Algorithm, n int, w word.Width) []Oracle {
	oracles := []Oracle{MutualExclusion{}, DeadlockFree{}, Reentry{}}
	cc := DefaultBudget(alg, n, w, sim.CC)
	dsm := DefaultBudget(alg, n, w, sim.DSM)
	if cc > 0 || dsm > 0 {
		oracles = append(oracles, RMRBudget{CC: cc, DSM: dsm})
	}
	return oracles
}
