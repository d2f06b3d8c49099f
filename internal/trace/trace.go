// Package trace is the observability layer over the simulator: it turns the
// machine's step-level event stream into attribution tables (which cells and
// which processes the RMRs were charged to) and into portable trace files —
// JSONL for scripting and Chrome trace_event JSON viewable in Perfetto or
// chrome://tracing.
//
// The paper's argument is per-access — Anderson–Kim-style round arguments
// and the Katzan–Morrison F&A upper bound both say *where* RMRs are forced,
// not just how many — so aggregate Max/Total counters are not enough to
// check them against an execution. A trace makes the per-access story
// inspectable: every shared-memory step carries its cell, operation, value
// transition, and RMR charges under both models; crash, park, and wake
// transitions appear as their own records.
//
// Tracing is pull-based and deterministic: a run's trace is exactly the
// event sequence the machine retains (sim.Machine.Trace). NoTrace
// configurations keep none, so a caller that wants the step-level story of
// such a run replays its schedule on a traced machine (faults.ReplayTraced).
// Because executions replay byte-identically, traces are byte-identical
// across -parallel settings and across Machine.Reset reuse; the engine's
// Capture merges per-run traces in submission order to keep that property
// across a worker pool.
package trace

import (
	"sync"

	"rme/internal/sim"
)

// Run is one traced execution: its slot in the submission order, a label for
// humans (algorithm name, reproducer id, experiment cell), the machine shape,
// and the event stream.
type Run struct {
	// Index is the run's global submission-order slot (see Capture).
	Index int
	// Label identifies the run in exported files ("watree", "reproducer-2").
	Label string
	// Procs and Model describe the machine the events ran on.
	Procs int
	Model sim.Model
	// Events is the run's full event stream, in sequence order.
	Events []sim.Event
}

// Capture accumulates per-run traces from concurrent workers and hands them
// back in deterministic submission order. Callers reserve a contiguous block
// of slots up front (Reserve), then fill each slot from whichever goroutine
// completes the run (Set); Runs returns the filled slots sorted by index, so
// the serialized output never depends on completion order. All methods are
// safe for concurrent use.
type Capture struct {
	mu   sync.Mutex
	runs []Run
	used []bool
}

// Reserve allocates n submission-order slots and returns the index of the
// first; slot i of the batch is base+i.
func (c *Capture) Reserve(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	base := len(c.runs)
	c.runs = append(c.runs, make([]Run, n)...)
	c.used = append(c.used, make([]bool, n)...)
	return base
}

// Set fills a reserved slot. The run's Index is overwritten with the slot.
func (c *Capture) Set(slot int, r Run) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Index = slot
	c.runs[slot] = r
	c.used[slot] = true
}

// Runs returns the filled slots in submission order. A slot stays unfilled
// only when its run's session failed to build; unfilled slots are omitted
// and the others keep their indices, so a gap shows as a gap, not a shift.
func (c *Capture) Runs() []Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Run, 0, len(c.runs))
	for i, r := range c.runs {
		if c.used[i] {
			out = append(out, r)
		}
	}
	return out
}

// Len returns the number of reserved slots.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}
