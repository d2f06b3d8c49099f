package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// debugRegistry is the registry the expvar "rme_telemetry" variable reads;
// ServeDebug swaps it in. Expvar variables are process-global and cannot be
// unpublished, so the indirection lets tests (and successive servers) each
// see the live registry.
var debugRegistry atomic.Pointer[Registry]

var publishOnce sync.Once

// DebugServer is an opt-in HTTP server for live inspection of a running
// tool: /metrics (Prometheus text, histogram buckets included), /debug/vars
// (expvar, whose rme_telemetry entry is the registry as the flat JSON
// series of the -metrics stream), and /debug/pprof.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// ServeDebug starts a debug server on addr (host:port; port 0 picks a free
// one) over the given registry and returns once the listener is bound. The
// server runs until Close.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	debugRegistry.Store(reg)
	publishOnce.Do(func() {
		expvar.Publish("rme_telemetry", expvar.Func(func() interface{} {
			return debugRegistry.Load().Snapshot().Flat()
		}))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, debugRegistry.Load().Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go d.srv.Serve(ln)
	return d, nil
}

// Addr returns the bound listen address (useful with port 0).
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Close shuts the server down. Safe on a nil receiver.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
