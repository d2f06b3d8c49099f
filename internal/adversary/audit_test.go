package adversary

import (
	"fmt"
	"strings"
	"testing"

	"rme/internal/algorithms/grlock"
	"rme/internal/algorithms/mcs"
	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tournament"
	"rme/internal/algorithms/watree"
	"rme/internal/algorithms/yatree"
	"rme/internal/engine"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// oracleObservables is the reference observation the value comparison must
// agree with: pending operations rendered as "label op" strings and cache
// sets as lists of cell ids, built with fmt and compared as strings.
type oracleObservables struct {
	done    bool
	parked  bool
	steps   int
	rmrCC   int
	rmrDSM  int
	crashes int
	tag     int
	pending string
	cached  string
}

func oracleObserve(m *sim.Machine, p int, active bool) oracleObservables {
	o := oracleObservables{
		done:    m.ProcDone(p),
		parked:  m.Parked(p),
		steps:   m.ProcSteps(p),
		crashes: m.Crashes(p),
		tag:     m.Tag(p),
	}
	if po, ok := m.Pending(p); ok {
		if po.Wait {
			o.pending = "wait"
		} else {
			o.pending = fmt.Sprintf("%s %s", po.Cell.Label(), po.Op)
		}
	}
	if active {
		o.rmrCC = m.RMRsIn(sim.CC, p)
		o.rmrDSM = m.RMRsIn(sim.DSM, p)
		var b strings.Builder
		for _, id := range m.CachedCells(p) {
			fmt.Fprintf(&b, "%d,", id)
		}
		o.cached = b.String()
	}
	return o
}

// oracleErasable decides p's erasability independently of buildWithout: it
// clones and restricts the live schedule, replays it on a session from its
// own worker, and compares string observables. On the same
// replay it also checks each process's pending key, and CachesAgree masked
// to that process alone, against the oracle's strings, so a field the value
// comparison mishandles shows even where another observable decides the
// verdict.
func oracleErasable(t *testing.T, a *Adversary, w *engine.Worker, p int) bool {
	t.Helper()
	old := a.session.Machine()
	restricted := old.Schedule().Restrict(func(q int) bool { return q != p })
	fresh, err := w.Session(a.cfg.Session)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Release(fresh)
	if err := fresh.Replay(restricted); err != nil {
		return false
	}
	if len(fresh.Violations()) > 0 {
		return false
	}
	nm := fresh.Machine()
	only := word.NewBitset(a.cfg.Session.Procs)
	erasable := true
	for q := 0; q < a.cfg.Session.Procs; q++ {
		if q == p || a.status[q] == Removed {
			continue
		}
		active := a.status[q] == Active
		o1, o2 := oracleObserve(old, q, active), oracleObserve(nm, q, active)
		v1, v2 := observe(old, q, active), observe(nm, q, active)
		if (o1.pending == o2.pending) != (v1.pending == v2.pending) {
			t.Errorf("without p%d: p%d pending %q vs %q, keys %+v vs %+v", p, q, o1.pending, o2.pending, v1.pending, v2.pending)
		}
		if active {
			only.ClearAll()
			only.Set(q)
			if (o1.cached == o2.cached) != nm.CachesAgree(old, only) {
				t.Errorf("without p%d: p%d caches %q vs %q, CachesAgree says %v", p, q, o1.cached, o2.cached, !nm.CachesAgree(old, only))
			}
		}
		if o1 != o2 {
			erasable = false
		}
	}
	return erasable
}

// TestErasureVerdictsMatchStringOracle runs the construction round by round
// over six algorithms, n ∈ {4, 8, 16}, w ∈ {4, 16}, CC and DSM. After every
// round each process that has not been removed is audited twice: by
// verifyErasable (value observables, CachesAgree) and by the string oracle
// on an independent replay. The verdicts must agree, and both verdicts must
// occur across the grid so the comparison is not vacuous.
func TestErasureVerdictsMatchStringOracle(t *testing.T) {
	algs := []mutex.Algorithm{watree.New(), yatree.New(), rspin.New(), mcs.New(), grlock.New(), tournament.New()}
	verdicts := map[bool]int{}
	for _, alg := range algs {
		for _, n := range []int{4, 8, 16} {
			for _, w := range []word.Width{4, 16} {
				for _, model := range []sim.Model{sim.CC, sim.DSM} {
					name := fmt.Sprintf("%s/n=%d/w=%d/%s", alg.Name(), n, w, model)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Session: mutex.Config{Procs: n, Width: w, Model: model, Algorithm: alg}}
						for v, c := range auditAgainstOracle(t, cfg) {
							verdicts[v] += c
						}
					})
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts over the grid: %d erasable, %d not; want both", verdicts[true], verdicts[false])
	}
}

// auditAgainstOracle drives one construction the way Run does and compares
// the two verdicts for every non-removed process after every round. It
// returns how often each verdict occurred.
func auditAgainstOracle(t *testing.T, cfg Config) map[bool]int {
	t.Helper()
	a, err := New(cfg)
	if err != nil && cfg.Session.Procs >= 1<<cfg.Session.Width {
		t.Skipf("ids 1..n do not fit in w bits: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	oracle := engine.NewWorker()
	defer oracle.Close()
	verdicts := map[bool]int{}
	for round := 1; round <= a.cfg.maxRounds() && len(a.actives()) >= 2; round++ {
		progressed, err := a.round(round)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for p, st := range a.status {
			if st == Removed {
				continue
			}
			got, want := a.verifyErasable(p), oracleErasable(t, a, oracle, p)
			if got != want {
				t.Fatalf("round %d: p%d (%s) erasable = %v, string oracle says %v", round, p, st, got, want)
			}
			verdicts[got]++
		}
		if !progressed {
			break
		}
	}
	return verdicts
}

// TestPendingKeyMatchesOracle checks the pending-operation key field by
// field. Each case leaves process 0 of a fresh machine pending on one
// operation (or in a multi-cell wait, or finished); for every pair of
// cases, observe must tell them apart exactly when the oracle's strings do.
// Dropping any field of the key merges a pair the oracle separates: two
// cells, three op codes with one argument, two first and two second CAS
// arguments, two custom-op names. A spin probe and a plain read of one cell
// must stay equal, as they were for the oracle.
func TestPendingKeyMatchesOracle(t *testing.T) {
	incr := func(v word.Word) (word.Word, word.Word) { return v + 1, v }
	pending := []struct {
		name string
		body func(p *sim.Proc, c0, c1 memory.Cell)
	}{
		{"read c0", func(p *sim.Proc, c0, _ memory.Cell) { p.Read(c0) }},
		{"read c1", func(p *sim.Proc, _, c1 memory.Cell) { p.Read(c1) }},
		{"spin c0", func(p *sim.Proc, c0, _ memory.Cell) { p.SpinUntil(c0, func(word.Word) bool { return true }) }},
		{"write 1", func(p *sim.Proc, c0, _ memory.Cell) { p.Write(c0, 1) }},
		{"write 2", func(p *sim.Proc, c0, _ memory.Cell) { p.Write(c0, 2) }},
		{"FAS 1", func(p *sim.Proc, c0, _ memory.Cell) { p.Swap(c0, 1) }},
		{"FAA 1", func(p *sim.Proc, c0, _ memory.Cell) { p.Add(c0, 1) }},
		{"CAS 1,2", func(p *sim.Proc, c0, _ memory.Cell) { p.CAS(c0, 1, 2) }},
		{"CAS 1,3", func(p *sim.Proc, c0, _ memory.Cell) { p.CAS(c0, 1, 3) }},
		{"CAS 0,2", func(p *sim.Proc, c0, _ memory.Cell) { p.CAS(c0, 0, 2) }},
		{"custom x", func(p *sim.Proc, c0, _ memory.Cell) { p.Apply(c0, memory.Custom("x", incr)) }},
		{"custom y", func(p *sim.Proc, c0, _ memory.Cell) { p.Apply(c0, memory.Custom("y", incr)) }},
		{"wait", func(p *sim.Proc, c0, c1 memory.Cell) {
			p.SpinUntilMulti([]memory.Cell{c0, c1}, func([]word.Word) bool { return false })
		}},
		{"finished", func(*sim.Proc, memory.Cell, memory.Cell) {}},
	}
	obs := make([]procObservables, len(pending))
	ref := make([]oracleObservables, len(pending))
	for i, pc := range pending {
		m, err := sim.New(sim.Config{Procs: 1, Width: 8, Model: sim.CC})
		if err != nil {
			t.Fatal(err)
		}
		c0 := m.NewCell("c0", memory.Shared, 0)
		c1 := m.NewCell("c1", memory.Shared, 0)
		body := pc.body
		prog := sim.ProgramFuncs{RunFunc: func(p *sim.Proc) { body(p, c0, c1) }}
		if err := m.Start([]sim.Program{prog}); err != nil {
			t.Fatal(err)
		}
		obs[i], ref[i] = observe(m, 0, false), oracleObserve(m, 0, false)
		m.Close()
	}
	for i := range pending {
		for j := range pending {
			if got, want := obs[i] == obs[j], ref[i] == ref[j]; got != want {
				t.Errorf("%q vs %q: observe equal = %v, oracle equal = %v", pending[i].name, pending[j].name, got, want)
			}
		}
	}
}

// probeLock is a fixture whose Lock reads one shared cell and then swaps 1
// into it. After q reads the cell and p reads and swaps it, erasing p
// changes nothing about q but its cache copy of the cell, which p's swap
// invalidated.
type probeLock struct{}

func (probeLock) Name() string      { return "probe" }
func (probeLock) Recoverable() bool { return false }
func (probeLock) Make(mem memory.Allocator, n int) (mutex.Instance, error) {
	return probeInstance{c: mem.NewCell("probe.c", memory.Shared, 0)}, nil
}

type probeInstance struct{ c memory.Cell }

func (in probeInstance) Bind(env memory.Env) mutex.Handle { return &probeHandle{env: env, c: in.c} }

type probeHandle struct {
	mutex.Unrecoverable
	env memory.Env
	c   memory.Cell
}

func (h *probeHandle) Lock()   { h.env.Read(h.c); h.env.Swap(h.c, 1) }
func (h *probeHandle) Unlock() {}

// TestCacheOnlyErasureMatchesOracle audits erasures whose only visible
// effect is on one active process's cache set, for every process q of a
// 70-process machine (two bitset words): both the value comparison and the
// string oracle must refuse the erasure. CachesAgree ignoring any masked
// process makes the value comparison accept it.
func TestCacheOnlyErasureMatchesOracle(t *testing.T) {
	const n = 70
	oracle := engine.NewWorker()
	defer oracle.Close()
	for q := 0; q < n; q++ {
		a, err := New(Config{Session: mutex.Config{Procs: n, Width: 16, Model: sim.CC, Algorithm: probeLock{}}})
		if err != nil {
			t.Fatal(err)
		}
		p := (q + 1) % n
		for _, r := range []int{q, p, p} {
			if _, err := a.session.StepProc(r); err != nil {
				t.Fatal(err)
			}
		}
		got, want := a.verifyErasable(p), oracleErasable(t, a, oracle, p)
		a.Close()
		if got || want {
			t.Fatalf("erasing p%d with only p%d's cache changed: erasable = %v, string oracle says %v; want both false", p, q, got, want)
		}
	}
}
