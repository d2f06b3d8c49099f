// Command rmetrace works with step-level trace files exported by the other
// tools' -trace flags (rmrbench, rmefault, rmecheck, rmeadversary) and with
// the telemetry JSONL streams their -metrics flags write.
//
//	rmetrace summarize [-model cc|dsm] [-top N] FILE
//	rmetrace convert [-format chrome|jsonl] [-o OUT] FILE
//	rmetrace metrics FILE
//
// summarize aggregates a JSONL trace into per-cell and per-process RMR
// attribution tables and prints the hottest cells and costliest processes —
// the answer to "where did the RMRs go" that aggregate Max/Total counters
// cannot give. convert re-encodes a JSONL trace, most usefully into Chrome
// trace_event JSON for the Perfetto timeline (https://ui.perfetto.dev).
// metrics summarizes a -metrics heartbeat stream: one row per series with
// first/min/max/last values and the cumulative rate over the stream's span.
// All read from stdin when FILE is "-". Output is a pure function of the
// input file: summarizing the same file twice prints identical bytes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"rme/internal/cliutil"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rmetrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: rmetrace summarize|convert|metrics [flags] FILE")
	}
	switch args[0] {
	case "summarize":
		return runSummarize(args[1:])
	case "convert":
		return runConvert(args[1:])
	case "metrics":
		return runMetrics(args[1:])
	case "version", "-version", "--version":
		fmt.Println(cliutil.VersionString("rmetrace"))
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (want summarize, convert, metrics or version)", args[0])
	}
}

// openInput opens the named file, or stdin for "-".
func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// readRuns loads a JSONL trace from the named file or stdin ("-").
func readRuns(path string) ([]trace.Run, error) {
	r, err := openInput(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	runs, err := trace.ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs in trace", path)
	}
	return runs, nil
}

func runSummarize(args []string) error {
	fs := flag.NewFlagSet("rmetrace summarize", flag.ContinueOnError)
	modelName := fs.String("model", "cc", "rank by RMRs under this cost model: cc or dsm")
	top := fs.Int("top", 10, "rows per attribution table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rmetrace summarize [-model cc|dsm] [-top N] FILE")
	}
	model, err := sim.ParseModel(*modelName)
	if err != nil {
		return err
	}
	runs, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("%d runs:\n", len(runs))
	for _, r := range runs {
		a := trace.Attribute(r.Events)
		fmt.Printf("  run %d: %s (%s, n=%d) — %d events, %d steps, %d RMRs\n",
			r.Index, r.Label, r.Model, r.Procs, a.Events, a.Steps, a.RMRs(r.Model))
	}
	trace.WriteSummary(os.Stdout, trace.Merge(runs), model, *top)
	return nil
}

// runMetrics summarizes a telemetry JSONL stream: per-series first, min,
// max and last values plus the cumulative rate between the first and last
// snapshots. Series are sorted by name, so output is diff-able.
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("rmetrace metrics", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rmetrace metrics FILE")
	}
	path := fs.Arg(0)
	r, err := openInput(path)
	if err != nil {
		return err
	}
	defer r.Close()
	recs, err := telemetry.ReadRecords(r)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: no records in metrics stream", path)
	}

	first, last := recs[0], recs[len(recs)-1]
	span := (last.TMS - first.TMS) / 1000 // seconds
	label := last.Label
	if label == "" {
		label = "(unlabeled)"
	}
	finalNote := ""
	if last.Final {
		finalNote = ", final record present"
	}
	fmt.Printf("%s: %d snapshots over %.2fs%s\n\n", label, len(recs), span, finalNote)

	type stat struct {
		first, min, max, last int64
		seen                  bool
	}
	stats := map[string]*stat{}
	var names []string
	for _, rec := range recs {
		for name, v := range rec.Metrics {
			s, ok := stats[name]
			if !ok {
				s = &stat{first: v, min: v, max: v}
				stats[name] = s
				names = append(names, name)
			}
			if v < s.min {
				s.min = v
			}
			if v > s.max {
				s.max = v
			}
			s.last = v
		}
	}
	sort.Strings(names)
	fmt.Printf("%-34s %12s %12s %12s %12s %12s\n", "series", "first", "min", "max", "last", "rate/s")
	for _, name := range names {
		s := stats[name]
		rate := "-"
		if span > 0 && s.last > s.first {
			rate = fmt.Sprintf("%.1f", float64(s.last-s.first)/span)
		}
		fmt.Printf("%-34s %12d %12d %12d %12d %12s\n", name, s.first, s.min, s.max, s.last, rate)
	}
	return nil
}

func runConvert(args []string) error {
	fs := flag.NewFlagSet("rmetrace convert", flag.ContinueOnError)
	format := fs.String("format", "chrome", "output encoding: chrome (Perfetto) or jsonl")
	out := fs.String("o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rmetrace convert [-format chrome|jsonl] [-o OUT] FILE")
	}
	f, err := trace.ParseFormat(*format)
	if err != nil {
		return err
	}
	runs, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	if *out == "" {
		return trace.Write(os.Stdout, f, runs)
	}
	if err := trace.WriteFile(*out, f, runs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%s, %d runs)\n", *out, f, len(runs))
	return nil
}
