package cliutil

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rme/internal/telemetry"
)

// Telemetry bundles the observability flags (-heartbeat, -metrics,
// -debugaddr) of the Run bundle. The registry exists only when at least one
// flag is set, so instrumented code pays a single nil check when telemetry
// is off — and nothing at all feeds back into results, so report output is
// byte-identical either way.
type Telemetry struct {
	// Heartbeat is the progress-line interval (0 = no stderr heartbeat).
	Heartbeat time.Duration
	// MetricsPath receives one JSONL snapshot per tick plus a final
	// cumulative record ("" = no stream).
	MetricsPath string
	// DebugAddr starts the debug HTTP server (/metrics, expvar, pprof) when
	// non-empty.
	DebugAddr string

	reg *telemetry.Registry
}

// telemetryFlags registers the flags on fs and returns the holder to Start
// after flag parsing.
func telemetryFlags(fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{}
	fs.DurationVar(&t.Heartbeat, "heartbeat", 0,
		"emit progress lines to stderr at this interval (0 = off)")
	fs.StringVar(&t.MetricsPath, "metrics", "",
		"append JSONL metric snapshots to this file (one per heartbeat tick plus a final cumulative record)")
	fs.StringVar(&t.DebugAddr, "debugaddr", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	return t
}

// Enabled reports whether any telemetry flag was set.
func (t *Telemetry) Enabled() bool {
	return t.Heartbeat > 0 || t.MetricsPath != "" || t.DebugAddr != ""
}

// Registry returns the live registry, or nil when telemetry is disabled.
// Subsystem configs accept the nil directly.
func (t *Telemetry) Registry() *telemetry.Registry { return t.reg }

// Start brings up whatever the flags asked for — registry, heartbeat,
// JSONL stream, debug server — and returns a stop function for defer (never
// nil). label prefixes the heartbeat lines; view selects the progress
// metric, ratio columns, and ETA target (see telemetry.View).
func (t *Telemetry) Start(label string, view telemetry.View) (stop func(), err error) {
	stop = func() {}
	if !t.Enabled() {
		return stop, nil
	}
	t.reg = telemetry.New()

	var srv *telemetry.DebugServer
	if t.DebugAddr != "" {
		srv, err = telemetry.ServeDebug(t.DebugAddr, t.reg)
		if err != nil {
			return stop, fmt.Errorf("debugaddr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics, /debug/vars, /debug/pprof)\n", srv.Addr())
	}

	var mf *os.File
	if t.MetricsPath != "" {
		mf, err = os.Create(t.MetricsPath)
		if err != nil {
			srv.Close()
			return stop, fmt.Errorf("metrics: %w", err)
		}
	}

	cfg := telemetry.HeartbeatConfig{
		Registry: t.reg,
		Interval: t.Heartbeat,
		Label:    label,
		View:     view,
	}
	if t.Heartbeat > 0 {
		cfg.Out = os.Stderr
	} else if mf != nil {
		// A metrics stream without -heartbeat still ticks, silently.
		cfg.Interval = time.Second
	}
	if mf != nil {
		cfg.Metrics = mf
	}
	hb := telemetry.StartHeartbeat(cfg)

	return func() {
		hb.Stop()
		if mf != nil {
			if err := mf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "debugaddr:", err)
		}
	}, nil
}
