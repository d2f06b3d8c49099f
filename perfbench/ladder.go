package main

import (
	"fmt"
	"runtime"
	"time"

	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tas"
	"rme/internal/algorithms/watree"
	"rme/internal/engine"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/service"
	"rme/internal/sim"
	"rme/internal/word"
)

// The layer ladder times single public functions of each layer in isolation,
// on inputs shaped like the workload each one serves. Every rung runs inside
// one "ladder" span labelled with the rung's name.

// sink keeps results of timed calls alive so the compiler cannot drop them.
var sink int

// meter accumulates the wall time and heap allocations of the calls it wraps.
type meter struct {
	ns, allocs uint64
	calls      int
}

func (m *meter) do(f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	m.ns += uint64(d.Nanoseconds())
	m.allocs += after.Mallocs - before.Mallocs
	m.calls++
	return err
}

func (m *meter) nsPerCall() float64     { return float64(m.ns) / float64(m.calls) }
func (m *meter) allocsPerCall() float64 { return float64(m.allocs) / float64(m.calls) }

// loop times n calls of f as one block and returns ns and allocations per
// call, for calls too short to meter one by one.
func loop(n int, f func(i int)) (nsPer, allocsPer float64) {
	var m meter
	_ = m.do(func() error {
		for i := 0; i < n; i++ {
			f(i)
		}
		return nil
	})
	return float64(m.ns) / float64(n), float64(m.allocs) / float64(n)
}

// stepSweeps advances every poised process of s by one step, sweeps times.
func stepSweeps(s *mutex.Session, sweeps int) error {
	m := s.Machine()
	var poised []int
	for k := 0; k < sweeps; k++ {
		poised = m.AppendPoised(poised)
		for _, p := range poised {
			if _, err := s.StepProc(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// runChecked runs s to completion and reports a safety violation as an error.
func runChecked(s *mutex.Session) error {
	if err := s.RunRoundRobin(); err != nil {
		return err
	}
	if v := s.Violations(); len(v) > 0 {
		return fmt.Errorf("violation: %s", v[0])
	}
	return nil
}

type rung struct {
	name string
	run  func(out map[string]float64) error
}

var ladder = []rung{
	{"memory.apply", rungApply},
	{"sim.step", rungStep},
	{"sim.cached_cells", rungCachedCells},
	{"sim.fingerprint", rungFingerprint},
	{"mutex.canonical_key", rungCanonicalKey},
	{"mutex.build.n256", rungBuild256},
	{"mutex.reset.n256", rungReset256},
	{"mutex.session.n8", rungSmallSession},
	{"engine.session_reuse.n64", rungSessionReuse},
	{"engine.pool", rungPool},
	{"service.stream", rungStream},
}

// runLadder runs every rung, each from a freshly collected heap, and adds
// its metrics to out.
func runLadder(tr *tracer, out map[string]float64) error {
	for _, r := range ladder {
		runtime.GC()
		tr.begin("ladder", r.name)
		err := r.run(out)
		tr.end()
		if err != nil {
			return fmt.Errorf("ladder %s: %w", r.name, err)
		}
	}
	return nil
}

// rungApply: memory.Apply over a mix of the five built-in opcodes at w=8.
func rungApply(out map[string]float64) error {
	ops := []memory.Op{memory.Read(), memory.Write(3), memory.Swap(5), memory.Add(1), memory.CAS(6, 2)}
	var cur, ret word.Word
	ns, _ := loop(4_000_000, func(i int) {
		var r word.Word
		cur, r = memory.Apply(ops[i%len(ops)], cur, 8)
		ret += r
	})
	sink += int(ret + cur)
	out["memory.apply_ns"] = ns
	return nil
}

// rungStep is the BenchmarkSimStep shape: one tas process stepping forever.
func rungStep(out map[string]float64) error {
	s, err := mutex.NewSession(mutex.Config{
		Procs: 1, Width: 64, Model: sim.CC, Algorithm: tas.New(),
		Passes: 1 << 30, NoTrace: true, MaxSteps: 1 << 62,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	var stepErr error
	ns, allocs := loop(300_000, func(int) {
		if _, err := s.StepProc(0); err != nil && stepErr == nil {
			stepErr = err
		}
	})
	out["sim.step_ns"] = ns
	out["sim.step_allocs"] = allocs
	return stepErr
}

// rungCachedCells: CachedCells on a watree n=256 machine a few steps into
// the entry protocol, as the adversary's audit calls it.
func rungCachedCells(out map[string]float64) error {
	s, err := mutex.NewSession(mutex.Config{Procs: 256, Width: 16, Model: sim.CC,
		Algorithm: watree.New(), NoTrace: true})
	if err != nil {
		return err
	}
	defer s.Close()
	if err := stepSweeps(s, 4); err != nil {
		return err
	}
	m := s.Machine()
	ns, _ := loop(200*256, func(i int) { sink += len(m.CachedCells(i % 256)) })
	out["sim.cached_cells_ns"] = ns
	return nil
}

// rungFingerprint: Machine.Fingerprint on a watree n=2 machine mid-passage,
// as the checker keys states.
func rungFingerprint(out map[string]float64) error {
	s, err := mutex.NewSession(mutex.Config{Procs: 2, Width: 8, Model: sim.CC,
		Algorithm: watree.New(), NoTrace: true})
	if err != nil {
		return err
	}
	defer s.Close()
	if err := stepSweeps(s, 3); err != nil {
		return err
	}
	m := s.Machine()
	ns, _ := loop(200_000, func(i int) { sink += int(m.Fingerprint(uint64(i)).Lo & 1) })
	out["sim.fingerprint_ns"] = ns
	return nil
}

// rungCanonicalKey: the symmetry-canonical state key of rspin n=4.
func rungCanonicalKey(out map[string]float64) error {
	s, err := mutex.NewSession(mutex.Config{Procs: 4, Width: 8, Model: sim.CC,
		Algorithm: rspin.New(), NoTrace: true})
	if err != nil {
		return err
	}
	defer s.Close()
	if err := stepSweeps(s, 3); err != nil {
		return err
	}
	ns, _ := loop(20_000, func(i int) {
		fp, _ := s.CanonicalStateKey(uint64(i))
		sink += int(fp.Lo & 1)
	})
	out["mutex.canonical_key_ns.rspin4"] = ns
	return nil
}

func e1Session(n int) mutex.Config {
	return mutex.Config{Procs: n, Width: 16, Model: sim.CC, Algorithm: watree.New(), Passes: 1, NoTrace: true}
}

// rungBuild256: NewSession for the n=256 machines the E1 grid builds.
func rungBuild256(out map[string]float64) error {
	var m meter
	for i := 0; i < 30; i++ {
		var s *mutex.Session
		err := m.do(func() (err error) {
			s, err = mutex.NewSession(e1Session(256))
			return err
		})
		if err != nil {
			return err
		}
		s.Close()
	}
	out["mutex.build_ns.n256"] = m.nsPerCall()
	out["mutex.build_allocs.n256"] = m.allocsPerCall()
	return nil
}

// rungReset256: Session.Reset of an n=256 machine after a full round-robin
// run, the adversary's replay-audit recycling.
func rungReset256(out map[string]float64) error {
	s, err := mutex.NewSession(e1Session(256))
	if err != nil {
		return err
	}
	defer s.Close()
	var m meter
	for i := 0; i < 20; i++ {
		if err := runChecked(s); err != nil {
			return err
		}
		if err := m.do(s.Reset); err != nil {
			return err
		}
	}
	out["mutex.reset_ns.n256"] = m.nsPerCall()
	out["mutex.reset_allocs.n256"] = m.allocsPerCall()
	return nil
}

// rungSmallSession: the service's machines, watree n=8 w=8. Each iteration
// resets the session and runs every process through one passage.
func rungSmallSession(out map[string]float64) error {
	s, err := mutex.NewSession(mutex.Config{Procs: 8, Width: 8, Model: sim.CC,
		Algorithm: watree.New(), Passes: 1, NoTrace: true})
	if err != nil {
		return err
	}
	defer s.Close()
	var reset, run meter
	for i := 0; i < 2000; i++ {
		if err := reset.do(s.Reset); err != nil {
			return err
		}
		if err := run.do(func() error { return runChecked(s) }); err != nil {
			return err
		}
	}
	out["mutex.reset_ns.n8"] = reset.nsPerCall()
	out["mutex.reset_allocs.n8"] = reset.allocsPerCall()
	out["mutex.passage_ns.n8"] = run.nsPerCall() / 8
	return nil
}

// rungSessionReuse is the BenchmarkSessionReuse shape: watree n=64 w=16 run
// on a fresh session each time, then on one engine.Worker recycling it.
func rungSessionReuse(out map[string]float64) error {
	cfg := e1Session(64)
	var fresh, reuse meter
	for i := 0; i < 100; i++ {
		err := fresh.do(func() error {
			s, err := mutex.NewSession(cfg)
			if err != nil {
				return err
			}
			defer s.Close()
			return runChecked(s)
		})
		if err != nil {
			return err
		}
	}
	w := engine.NewWorker()
	defer w.Close()
	for i := 0; i < 100; i++ {
		err := reuse.do(func() error {
			s, err := w.Session(cfg)
			if err != nil {
				return err
			}
			defer w.Release(s)
			return runChecked(s)
		})
		if err != nil {
			return err
		}
	}
	out["mutex.fresh_run_ms.n64"] = fresh.nsPerCall() / 1e6
	out["engine.reset_run_ms.n64"] = reuse.nsPerCall() / 1e6
	return nil
}

// rungPool: a 64-spec batch of watree n=8 runs on a two-worker engine.Pool,
// the shape of one service round.
func rungPool(out map[string]float64) error {
	specs := make([]engine.RunSpec, 64)
	for i := range specs {
		specs[i] = engine.RunSpec{Session: mutex.Config{Procs: 8, Width: 8, Model: sim.CC,
			Algorithm: watree.New(), Passes: 1, NoTrace: true}}
	}
	pool := engine.NewPool(enginePar)
	defer pool.Close()
	opts := engine.Options{Parallel: enginePar}
	batch := func() error {
		for _, r := range pool.Run(specs, opts) {
			if r.Err != nil {
				return r.Err
			}
			if len(r.Violations) > 0 {
				return fmt.Errorf("violation: %s", r.Violations[0])
			}
		}
		return nil
	}
	if err := batch(); err != nil {
		return err
	}
	var m meter
	for i := 0; i < 40; i++ {
		if err := m.do(batch); err != nil {
			return err
		}
	}
	out["engine.pool_spec_ns"] = m.nsPerCall() / float64(len(specs))
	return nil
}

// rungStream: arrivals drawn from the service's zipf:1.1 stream over a
// million clients.
func rungStream(out map[string]float64) error {
	dist, err := service.ParseDist("zipf:1.1")
	if err != nil {
		return err
	}
	st, err := service.NewStream(dist, 1_000_000, 7)
	if err != nil {
		return err
	}
	ns, _ := loop(1_000_000, func(int) { sink += st.Next() })
	out["service.stream_ns_per_arrival"] = ns
	return nil
}
