package mutex_test

import (
	"reflect"
	"slices"
	"testing"

	"rme"
	"rme/internal/mutex"
	"rme/internal/sim"
)

// crashy is the crash rate of the registry-wide reset and erasure tests.
var crashy = mutex.RandomRunOptions{CrashProb: 0.1, MaxCrashesPerProc: 2}

// handleFields returns a shallow copy of the struct behind each handle:
// pointer and interface fields keep their targets, so reflect.DeepEqual of
// two copies stops at equal pointers and compares plain fields by value.
func handleFields(hs []mutex.Handle) []any {
	out := make([]any, len(hs))
	for i, h := range hs {
		v := reflect.Indirect(reflect.ValueOf(h))
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		out[i] = c.Interface()
	}
	return out
}

// runRecord is what a driven session leaves behind.
type runRecord struct {
	trace   []sim.Event
	stats   []mutex.PassageStat
	rmrs    []int
	csOrder []int
}

// record captures s's run. Custom operations' transitions are dropped from
// the trace, since reflect.DeepEqual never equates non-nil funcs.
func record(s *mutex.Session) runRecord {
	m := s.Machine()
	r := runRecord{trace: slices.Clone(m.Trace()), stats: s.Stats(), csOrder: s.CSOrder()}
	for i := range r.trace {
		r.trace[i].Op.F = nil
	}
	for p := 0; p < m.Procs(); p++ {
		r.rmrs = append(r.rmrs, m.RMRsIn(sim.CC, p), m.RMRsIn(sim.DSM, p))
	}
	return r
}

// TestResetKeepsHandles checks, for every registry algorithm, that a session
// binds each process's handle once: a crashy run leaves every handle's
// fields as Bind set them (the Handle contract bind-once relies on), Reset
// keeps the same handles, and the reset session replays a seed to the same
// trace, passage records, RMR counters and CS order as a fresh session.
//
// A session that rewinds binds each handle once more, to its Proc's feeding
// Env, on the process's first run after the session's first rewind. The
// first rewind of a session without a trace, back to its start, relaunches
// every process and so rebinds every handle, and the relaunched bodies take
// every logged step on their own goroutines, none at the step gate. From
// then on rewinds to the middle of a crashy schedule and Resets keep the
// handles, no step is fed at the gate, and the session still runs a seed as
// a fresh one does. Only tournament registers multi-cell waits, so only its
// sessions may decline to rewind, and then they keep their handles.
func TestResetKeepsHandles(t *testing.T) {
	for _, alg := range rme.Algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			cfg := mutex.Config{Procs: 4, Width: 16, Model: sim.CC, Algorithm: alg, Passes: 2}
			s, err := mutex.NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			bound := mutex.Handles(s)
			fields := handleFields(bound)
			if err := s.RunRandom(1, crashy); err != nil {
				t.Fatal(err)
			}
			if after := handleFields(mutex.Handles(s)); !reflect.DeepEqual(fields, after) {
				t.Fatalf("handle fields changed during a run:\nbefore %+v\nafter  %+v", fields, after)
			}
			if err := s.Reset(); err != nil {
				t.Fatal(err)
			}
			for p, h := range mutex.Handles(s) {
				if h != bound[p] {
					t.Fatalf("p%d: Reset rebound the handle", p)
				}
			}
			if err := s.RunRandom(2, crashy); err != nil {
				t.Fatal(err)
			}
			fresh, err := mutex.NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if err := fresh.RunRandom(2, crashy); err != nil {
				t.Fatal(err)
			}
			if got, want := record(s), record(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("reset session with kept handles diverges from a fresh one:\nreset %+v\nfresh %+v", got, want)
			}

			cfg.NoTrace = true
			full := randomSchedule(t, cfg, 3)
			r := newSession(t, cfg)
			first := mutex.Handles(r)
			start := r.RewindPoint()
			if err := r.Replay(full); err != nil {
				t.Fatal(err)
			}
			rewind := func(pt mutex.RewindPoint, what string, feeds bool) bool {
				t.Helper()
				ok, err := r.Rewind(pt)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !ok {
					if alg.Name() != "tournament" {
						t.Fatalf("%s declined", what)
					}
					return false
				}
				if _, fed, gateFed := r.Machine().RewindWork(); (fed > 0) != feeds || gateFed != 0 {
					t.Fatalf("%s fed %d logged steps, %d of them at the step gate; want steps fed: %v, none at the gate", what, fed, gateFed, feeds)
				}
				return true
			}
			if !rewind(start, "the first rewind", false) {
				for p, h := range mutex.Handles(r) {
					if h != first[p] {
						t.Fatalf("p%d: a declined rewind rebound the handle", p)
					}
				}
				return
			}
			rebound := mutex.Handles(r)
			for p, h := range rebound {
				if h == first[p] {
					t.Fatalf("p%d: the session's first rewind relaunched the body without binding its handle to the feeding Env", p)
				}
			}
			fields = handleFields(rebound)
			keeps := func(when string) {
				t.Helper()
				hs := mutex.Handles(r)
				for p, h := range hs {
					if h != rebound[p] {
						t.Fatalf("p%d: the handle changed %s", p, when)
					}
				}
				if after := handleFields(hs); !reflect.DeepEqual(fields, after) {
					t.Fatalf("handle fields changed %s:\nbefore %+v\nafter  %+v", when, fields, after)
				}
			}
			mid := len(full) / 2
			for round := 0; round < 2; round++ {
				if err := r.Replay(full[:mid]); err != nil {
					t.Fatal(err)
				}
				pt := r.RewindPoint()
				if err := r.Replay(full[mid:]); err != nil {
					t.Fatal(err)
				}
				keeps("during a run")
				if !rewind(pt, "a later rewind", true) {
					return
				}
				keeps("in a later rewind")
				if err := r.Reset(); err != nil {
					t.Fatal(err)
				}
				keeps("in a Reset after a rewind")
			}
			if err := r.RunRandom(2, crashy); err != nil {
				t.Fatal(err)
			}
			fresh = newSession(t, cfg)
			if err := fresh.RunRandom(2, crashy); err != nil {
				t.Fatal(err)
			}
			if got, want := record(r), record(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("rewound session with rebound handles diverges from a fresh one:\nrewound %+v\nfresh   %+v", got, want)
			}
		})
	}
}
