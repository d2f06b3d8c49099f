// Package cliutil is the one run lifecycle of the cmd/ run tools (rmecheck,
// rmefault, rmeadversary, rmrbench, rmeserve, rmenative): Flags registers
// their shared diagnostic flags (-version, -cpuprofile, -memprofile,
// -heartbeat, -metrics, -debugaddr, -ledger, -runlabel) and Run.Do drives
// them around the tool's body. Tools that export step-level traces add the
// Trace piece (-trace, -traceformat, -top). Diagnostics go to stderr or to
// the files the flags name: stdout belongs to the reports, which stay
// byte-identical at any -parallel and with every diagnostic on or off. The
// keyed JSON-report merge that rmrbench -json and rmenative -merge share
// lives here too.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"rme/internal/perflog"
	"rme/internal/telemetry"
	"rme/internal/trace"
)

// Run is the diagnostic flag bundle of one tool invocation.
type Run struct {
	tool       string
	version    bool
	cpuProfile string
	memProfile string
	tele       *Telemetry
	ledger     *Ledger
	trace      *Trace
}

// Flags registers the bundle's flags on fs; the flag set's name is the tool
// name the -version banner prints.
func Flags(fs *flag.FlagSet) *Run {
	r := &Run{tool: fs.Name()}
	fs.BoolVar(&r.version, "version", false, "print build provenance (go version, git revision, dirty bit) and exit")
	fs.StringVar(&r.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&r.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	r.tele = telemetryFlags(fs)
	r.ledger = LedgerFlags(fs)
	return r
}

// Registry returns the live telemetry registry, or nil when telemetry is
// off. Subsystem configs accept the nil directly.
func (r *Run) Registry() *telemetry.Registry { return r.tele.Registry() }

// Do runs body inside the shared lifecycle. -version prints the banner
// instead, and a bad -traceformat fails before anything starts. Otherwise
// the CPU profile and telemetry (heartbeat label and view) run around body,
// the heap profile is written whether or not body failed, and body's
// manifests reach the ledger only when it succeeded.
func (r *Run) Do(label string, view telemetry.View, body func() ([]*perflog.Manifest, error)) error {
	if r.version {
		fmt.Println(VersionString(r.tool))
		return nil
	}
	if r.trace != nil {
		if _, err := trace.ParseFormat(r.trace.Format); err != nil {
			return err
		}
	}
	if r.cpuProfile != "" {
		f, err := os.Create(r.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}()
	}
	stopTele, err := r.tele.Start(label, view)
	if err != nil {
		return err
	}
	defer stopTele()
	ms, err := body()
	// A failed run is still worth profiling, so the heap profile comes first.
	if herr := writeHeapProfile(r.memProfile); err == nil {
		err = herr
	}
	if err != nil {
		return err
	}
	return r.ledger.Emit(r.Registry(), ms...)
}

// writeHeapProfile writes a heap profile to the given path (empty = no-op)
// after a final GC, so the profile reflects live allocations.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
