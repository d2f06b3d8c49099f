// Package sim implements the paper's machine model (§2) as a deterministic,
// schedule-driven simulator: n asynchronous processes performing atomic
// operations on w-bit base objects, with remote-memory-reference (RMR)
// accounting in both the cache-coherent (CC) and distributed shared memory
// (DSM) models, and individual crash steps that reset a process's local state
// while shared memory persists.
//
// Algorithm code runs on goroutines but is *step-gated*: every shared-memory
// operation blocks at a gate until the controller (a test, driver, or the
// lower-bound adversary) grants the step. Exactly one process body runs at a
// time, so executions are fully determined by their schedule and can be
// replayed — which is how the adversary materializes the proof's
// exponentially many sub-schedules on demand.
package sim

import (
	"fmt"
	"strings"
)

// Model selects which RMR accounting rule drives scheduling decisions
// (both counters are always maintained).
type Model int

// The two standard RMR cost models (paper §2).
const (
	// CC: every non-read operation incurs an RMR; a read incurs an RMR iff
	// the reader holds no valid cache copy. Reads create cache copies;
	// non-read operations (by anyone) invalidate all copies of the cell.
	CC Model = iota + 1
	// DSM: shared memory is partitioned into per-process segments; an
	// operation incurs an RMR iff the cell is outside the caller's segment.
	DSM
)

// String returns the conventional model name.
func (m Model) String() string {
	switch m {
	case CC:
		return "CC"
	case DSM:
		return "DSM"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel parses a cost-model name, case-insensitively: "cc" or "dsm".
// Any other name is an error, never a silent default.
func ParseModel(name string) (Model, error) {
	switch strings.ToLower(name) {
	case "cc":
		return CC, nil
	case "dsm":
		return DSM, nil
	}
	return 0, fmt.Errorf("unknown model %q (want cc or dsm)", name)
}

// Valid reports whether m is CC or DSM.
func (m Model) Valid() bool { return m == CC || m == DSM }
