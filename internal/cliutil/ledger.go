package cliutil

import (
	"flag"
	"fmt"
	"os"

	"rme/internal/perflog"
	"rme/internal/telemetry"
)

// Ledger bundles the perf-ledger flags (-ledger, -runlabel) of the Run
// bundle. Like telemetry, it is strictly off the result path: the flags
// decide only whether a run manifest is appended to a JSONL ledger after the
// run, never what the run computes, so all -json parity guarantees hold with
// the ledger on or off.
type Ledger struct {
	// Path is the JSONL ledger file to append run manifests to ("" = off).
	Path string
	// Label tags the appended manifests (free-form; excluded from run
	// identity so a relabelled rerun still matches its baseline).
	Label string
}

// ledgerFlags registers the shared flags on fs and returns the holder to
// Emit after the run.
func ledgerFlags(fs *flag.FlagSet) *Ledger {
	l := &Ledger{}
	fs.StringVar(&l.Path, "ledger", "",
		"append run manifests (config digest, deterministic counters, wall samples) to this JSONL perf ledger")
	fs.StringVar(&l.Label, "runlabel", "",
		"free-form label stamped on ledger manifests (e.g. baseline, ci, a ticket id)")
	return l
}

// Emit stamps label, build provenance, and the telemetry registry's final
// snapshot (reg may be nil) onto each manifest and appends them to the
// ledger. No-op when the ledger is disabled. A failed append is returned,
// and Run.Do returns it, so the tool exits non-zero: a ledger gate (CI's
// rmereport regress) must not pass on a ledger that lacks the run.
func (l *Ledger) Emit(reg *telemetry.Registry, ms ...*perflog.Manifest) error {
	if l.Path == "" || len(ms) == 0 {
		return nil
	}
	tel := reg.Export()
	for _, m := range ms {
		m.Label = l.Label
		m.Provenance = perflog.Build()
		m.Telemetry = tel
	}
	if err := perflog.Append(l.Path, ms...); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ledger: appended %d manifest(s) to %s\n", len(ms), l.Path)
	return nil
}

// VersionString renders the standard -version banner for a tool.
func VersionString(tool string) string {
	return tool + " " + perflog.Build().Short()
}
