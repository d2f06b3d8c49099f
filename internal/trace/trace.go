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
// across -parallel settings and across Machine.Reset reuse; a Capture keeps
// that property across a worker pool by taking each engine batch whole, in
// submission order.
package trace

import "rme/internal/sim"

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

// Capture accumulates the traces of successive engine batches in
// submission order. The engine fills a batch by position and appends it
// once every run has finished, so the serialized output never depends on
// completion order. A Capture is not safe for concurrent use.
type Capture struct {
	runs []Run
	next int
}

// Append adds one batch; its slots continue from the previous batch's, and
// each run's Index is set to its slot. A run with no processes (the engine
// leaves a run whose session failed to build zero) is not stored but keeps
// its slot, so a gap shows as a gap, not a shift.
func (c *Capture) Append(batch []Run) {
	for i, r := range batch {
		if r.Procs == 0 {
			continue
		}
		r.Index = c.next + i
		c.runs = append(c.runs, r)
	}
	c.next += len(batch)
}

// Runs returns the stored runs in submission order.
func (c *Capture) Runs() []Run { return c.runs }
