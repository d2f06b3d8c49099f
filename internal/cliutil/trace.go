package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rme/internal/sim"
	"rme/internal/trace"
)

// Trace holds -trace (export path), -traceformat and -top (hottest
// cells/procs to print) for the tools that export step-level traces. It is
// separate from the Run bundle because rmeserve's -top means something else.
type Trace struct {
	Path, Format string
	Top          int
}

// TraceFlags registers the trace piece on fs with the tool's own help texts
// for -trace and -top, and has Do reject a bad -traceformat up front.
func (r *Run) TraceFlags(fs *flag.FlagSet, traceUsage, topUsage string) *Trace {
	t := &Trace{}
	fs.StringVar(&t.Path, "trace", "", traceUsage)
	fs.StringVar(&t.Format, "traceformat", "jsonl", "trace encoding: jsonl or chrome (Perfetto)")
	fs.IntVar(&t.Top, "top", 0, topUsage)
	r.trace = t
	return t
}

// Enabled reports whether -trace or -top asked for traced runs.
func (t *Trace) Enabled() bool { return t.Path != "" || t.Top > 0 }

// Write prints the hottest-cells / costliest-procs attribution of runs to w
// when -top is set, then exports runs to -trace and notes the export on
// stderr.
func (t *Trace) Write(w io.Writer, runs []trace.Run, model sim.Model) error {
	if t.Top > 0 {
		trace.WriteSummary(w, trace.Merge(runs), model, t.Top)
	}
	if t.Path == "" {
		return nil
	}
	f, err := trace.ParseFormat(t.Format)
	if err != nil {
		return err
	}
	if err := trace.WriteFile(t.Path, f, runs); err != nil {
		return err
	}
	events := 0
	for _, r := range runs {
		events += len(r.Events)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%s, %d runs, %d events)\n", t.Path, f, len(runs), events)
	return nil
}
