package harness

import (
	"fmt"
	"math"
	"math/rand"

	"rme/internal/adversary"
	"rme/internal/algorithms/clh"
	"rme/internal/algorithms/grlock"
	"rme/internal/algorithms/mcs"
	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tas"
	"rme/internal/algorithms/ticket"
	"rme/internal/algorithms/tournament"
	"rme/internal/algorithms/watree"
	"rme/internal/algorithms/yatree"
	"rme/internal/engine"
	"rme/internal/hiding"
	"rme/internal/hypergraph"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/trace"
	"rme/internal/word"
)

// Options tunes experiment scale and execution.
type Options struct {
	// Full enlarges parameter sweeps (slower, for the headline run).
	Full bool
	// Parallel is the engine worker count for experiment grids (<= 0 means
	// GOMAXPROCS). Every experiment merges results in grid order, so the
	// rendered tables are byte-identical at any parallelism level.
	Parallel int
	// Metrics, when non-nil, accumulates run statistics (run counts, steps,
	// max/avg RMRs) across experiments — cmd/rmrbench threads one through
	// each experiment for its ledger manifest.
	Metrics *engine.Metrics
	// Seed offsets every experiment's fixed base seeds. 0 reproduces the
	// published tables; any other value reruns the randomized experiments on
	// a disjoint, equally deterministic sample.
	Seed int64
	// Trace, when non-nil, captures every engine run's event stream for
	// export (cmd/rmrbench -trace). Experiments that bypass the engine's
	// Run (adversary constructions) are not captured.
	Trace *trace.Capture
	// Telemetry, when non-nil, receives live engine statistics from every
	// experiment grid (see engine.Options.Telemetry).
	Telemetry *telemetry.Registry
}

func (o Options) engineOpts() engine.Options {
	return engine.Options{Parallel: o.Parallel, Metrics: o.Metrics, Trace: o.Trace, Telemetry: o.Telemetry}
}

// Experiment is one reproducible result.
type Experiment struct {
	ID    string
	Title string
	// Claim cites the paper statement the experiment reproduces.
	Claim string
	Run   func(opts Options) ([]Table, error)
}

// All returns the experiments in index order: the paper-claim
// reproductions E1–E8 followed by the §4-discussion extensions (see
// Extensions).
func All() []Experiment {
	exps := core()
	return append(exps, Extensions()...)
}

func core() []Experiment {
	return []Experiment{
		{
			ID:    "E1",
			Title: "Theorem 1 — adversary-forced RMRs (lower bound)",
			Claim: "Any deadlock-free RME algorithm on w-bit words has RMR complexity Ω(min(log_w n, log n/log log n)); the operational adversary forces that many RMRs on a process that never crashes and never enters the CS.",
			Run:   runE1,
		},
		{
			ID:    "E2",
			Title: "Katzan–Morrison upper bound — word-size tradeoff",
			Claim: "The FAA-based algorithm [19] achieves O(log_w n) RMRs per passage; the lower bound is tight for w ≥ (log n)^ε.",
			Run:   runE2,
		},
		{
			ID:    "E3",
			Title: "Lemma 4 — hypergraph certificate statistics",
			Claim: "For any k-partite hypergraph with |X_1| ≤ s(1+ε), a set Z with conclusion (a) or (b) exists; the constructive search always produces a verified certificate.",
			Run:   runE3,
		},
		{
			ID:    "E4",
			Title: "Lemma 5 — iterated certificate statistics",
			Claim: "With all parts ≤ s(1+ε) and |E| ≥ s^k, a hyperedge family F and index d exist with |U∩X_i| ≤ 2 (i≠d) and |U∩X_d| ≥ s(1+ε)(1−2ε).",
			Run:   runE4,
		},
		{
			ID:    "E5",
			Title: "Lemma 2 (Process-Hiding) — certificates at the paper's constants",
			Claim: "Groups of ≥ 108δℓ² processes on a 2^ℓ-valued register admit alpha sets A_i ⊆ V_i and, for every |D| ≤ δ|∪V_i|, hidden processes z_i for at least half the groups.",
			Run:   runE5,
		},
		{
			ID:    "E6",
			Title: "Algorithm landscape — RMRs per passage (paper §1.2)",
			Claim: "Empirical RMR-per-passage of the algorithm families the paper surveys: O(n) [12], O(log n) [16,23], O(log_w n) [19], O(1) conventional queue locks [20,21].",
			Run:   runE6,
		},
		{
			ID:    "E7",
			Title: "Crash steps rescue hiding (paper §1.1)",
			Claim: "With FAS and no crashes, every process discovers its predecessor and the active set collapses; with crashes, an adversary hides a process under the alphas' crash-recover-complete manoeuvre.",
			Run:   runE7,
		},
		{
			ID:    "E8",
			Title: "Invariant audit — operational I1–I10 compliance",
			Claim: "Every adversary construction verifies its removals by replay (the 2^n-column table materialized on demand); the audit reports zero invariant violations.",
			Run:   runE8,
		},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- E1 ----------------------------------------------------------------------

func runE1(opts Options) ([]Table, error) {
	ns := []int{16, 64, 256}
	ws := []word.Width{4, 8, 16, 64}
	models := []sim.Model{sim.CC}
	if opts.Full {
		ns = append(ns, 1024)
		models = append(models, sim.DSM)
	}

	var cfgs []mutex.Config
	for _, model := range models {
		for _, n := range ns {
			for _, w := range ws {
				cfgs = append(cfgs, mutex.Config{Procs: n, Width: w, Model: model, Algorithm: watree.New()})
			}
		}
	}
	reps, err := adversaryGrid("E1", cfgs, 0, opts)
	if err != nil {
		return nil, err
	}

	var tables []Table
	idx := 0
	for _, model := range models {
		t := Table{
			Title:  fmt.Sprintf("E1 (%s): adversary vs watree — forced RMRs by (n, w)", model),
			Header: []string{"n", "w", "rounds", "forced RMRs", "survivors", "ceil(log_w n)", "theory min(log_w n, ln n/ln ln n)"},
			Note: "forced RMRs = max RMRs over surviving active processes (never crashed, " +
				"never entered the CS). The shape must track the theory column: " +
				"decreasing in w, increasing in n.",
		}
		for _, n := range ns {
			for _, w := range ws {
				rep := reps[idx]
				idx++
				t.AddRow(n, int(w), rep.ViableRounds, rep.ForcedRMRs(), len(rep.Survivors),
					word.CeilLog(int(w), n), word.TheoreticalLowerBound(w, n))
			}
		}
		tables = append(tables, t)
	}

	// Companion table: the bound against a read/write algorithm — the
	// classic Anderson–Kim regime the paper generalizes. Word size does not
	// enter a read/write protocol, so the forced cost tracks log n alone.
	rw := Table{
		Title:  "E1b (CC): adversary vs yatree (reads/writes only) — forced RMRs by n",
		Header: []string{"n", "rounds", "forced RMRs", "survivors", "ceil(log2 n)"},
		Note: "Against reads and writes the adversary needs no crash steps at all " +
			"(the Anderson–Kim construction [1]); the forced cost grows with log n " +
			"independent of w.",
	}
	cfgsB := make([]mutex.Config, len(ns))
	for i, n := range ns {
		cfgsB[i] = mutex.Config{Procs: n, Width: 16, Model: sim.CC, Algorithm: yatree.New()}
	}
	repsB, err := adversaryGrid("E1b", cfgsB, 0, opts)
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		rep := repsB[i]
		rw.AddRow(n, rep.ViableRounds, rep.ForcedRMRs(), len(rep.Survivors), word.CeilLog(2, n))
	}
	tables = append(tables, rw)
	return tables, nil
}

// adversaryGrid runs one adversary construction (contention threshold k, 0
// for the default) per session config, distributed over engine workers.
// Reports land by index, so table order never depends on completion order.
// A construction that fails or reports an invariant violation fails the
// grid with the lowest such index, labelled with the experiment id.
func adversaryGrid(id string, cfgs []mutex.Config, k int, opts Options) ([]*adversary.Report, error) {
	reps := make([]*adversary.Report, len(cfgs))
	err := engine.ForEach(len(cfgs), opts.Parallel, func(i int) error {
		cfg := cfgs[i]
		fail := func(err error) error {
			return fmt.Errorf("%s %s %s n=%d w=%d: %w", id, cfg.Algorithm.Name(), cfg.Model, cfg.Procs, cfg.Width, err)
		}
		adv, err := adversary.New(adversary.Config{Session: cfg, K: k})
		if err != nil {
			return fail(err)
		}
		defer adv.Close()
		rep, err := adv.Run()
		if err != nil {
			return fail(err)
		}
		if len(rep.InvariantViolations) > 0 {
			return fail(fmt.Errorf("invariant violations: %v", rep.InvariantViolations))
		}
		if opts.Metrics != nil {
			opts.Metrics.Add(1, rep.Steps, rep.ForcedRMRs())
		}
		reps[i] = rep
		return nil
	})
	return reps, err
}

// --- E2 ----------------------------------------------------------------------

func runE2(opts Options) ([]Table, error) {
	ns := []int{16, 64, 256}
	ws := []word.Width{2, 4, 8, 16, 32, 64}
	if opts.Full {
		ns = append(ns, 1024)
	}
	t := Table{
		Title: "E2: watree measured worst-case RMRs per passage by (n, w)",
		Header: []string{"n", "w", "fanout", "depth", "max RMR/passage CC", "max RMR/passage DSM",
			"per-level CC", "theory Θ(log_w n)"},
		Note: "Upper bound shape: the measured worst-case passage cost divided by the tree " +
			"depth is a constant (the per-level column), so the cost is Θ(depth) = " +
			"Θ(ceil(log_w n)) — decreasing in w, matching Theorem 1's lower bound for " +
			"w ≥ (log n)^ε and meeting the O(1) Katzan–Morrison headline at w ≥ n.",
	}
	alg := watree.New()
	type point struct {
		n          int
		w          word.Width
		fan, depth int
	}
	var pts []point
	var specs []engine.RunSpec
	for _, n := range ns {
		for _, w := range ws {
			fan := alg.Fanout(w, n)
			pts = append(pts, point{n, w, fan, word.CeilLog(fan, n)})
			specs = append(specs, engine.RunSpec{Session: mutex.Config{
				Procs: n, Width: w, Model: sim.CC, Algorithm: alg, Passes: 2, NoTrace: true,
			}})
		}
	}
	for i, r := range engine.Run(specs, opts.engineOpts()) {
		pt := pts[i]
		if r.Err != nil {
			return nil, fmt.Errorf("E2 n=%d w=%d: %w", pt.n, pt.w, r.Err)
		}
		perLevel := float64(r.MaxRMRCC)
		if pt.depth > 0 {
			perLevel = float64(r.MaxRMRCC) / float64(pt.depth)
		}
		t.AddRow(pt.n, int(pt.w), pt.fan, pt.depth, r.MaxRMRCC, r.MaxRMRDSM, perLevel,
			word.CeilLog(int(pt.w), pt.n))
	}
	return []Table{t}, nil
}

// --- E3 ----------------------------------------------------------------------

func runE3(opts Options) ([]Table, error) {
	trials := 300
	if opts.Full {
		trials = 2000
	}
	rng := rand.New(rand.NewSource(11 + opts.Seed))
	t := Table{
		Title:  "E3: Lemma 4 over random k-partite hypergraphs",
		Header: []string{"k", "trials", "case (a)", "case (b)", "avg |Z| (b)", "verified"},
		Note:   "Every trial must yield a certificate satisfying conclusion (a) or (b); the verifier re-checks the set algebra from scratch.",
	}
	for _, k := range []int{2, 3, 4} {
		caseA, caseB, sumZB, verified := 0, 0, 0, 0
		for i := 0; i < trials; i++ {
			size := 4 + rng.Intn(8)
			edges, parts := randomHypergraph(rng, k, size)
			s := float64(size) / 1.2
			res, err := hypergraph.Lemma4(edges, 0, parts[0], s, 0.2)
			if err != nil {
				return nil, fmt.Errorf("E3 trial %d: %w", i, err)
			}
			if err := hypergraph.VerifyLemma4(edges, 0, res, s, 0.2); err != nil {
				return nil, fmt.Errorf("E3 trial %d: %w", i, err)
			}
			verified++
			if res.CaseA {
				caseA++
			} else {
				caseB++
				sumZB += len(res.Z)
			}
		}
		avgZ := 0.0
		if caseB > 0 {
			avgZ = float64(sumZB) / float64(caseB)
		}
		t.AddRow(k, trials, caseA, caseB, avgZ, verified)
	}
	return []Table{t}, nil
}

func randomHypergraph(rng *rand.Rand, k, size int) ([]hypergraph.Edge, [][]hypergraph.Vertex) {
	parts := completeParts(k, size)
	total := 1
	for i := 0; i < k; i++ {
		total *= size
	}
	want := 1 + rng.Intn(4*size*size)
	if want > total {
		want = total
	}
	seen := make(map[string]bool, want)
	var edges []hypergraph.Edge
	for len(edges) < want {
		e := make(hypergraph.Edge, k)
		for i := range e {
			e[i] = parts[i][rng.Intn(size)]
		}
		key := e.String()
		if !seen[key] {
			seen[key] = true
			edges = append(edges, e)
		}
	}
	return edges, parts
}

// --- E4 ----------------------------------------------------------------------

func runE4(opts Options) ([]Table, error) {
	trials := 40
	if opts.Full {
		trials = 200
	}
	rng := rand.New(rand.NewSource(12 + opts.Seed))
	t := Table{
		Title:  "E4: Lemma 5 over random edge subsets with |E| ≥ s^k",
		Header: []string{"k", "part size", "trials", "avg |F|", "avg |U∩X_d|", "bound s(1+ε)(1−2ε)", "verified"},
		Note:   "The distinguished part's support must meet the lower bound; all other parts are touched in ≤ 2 vertices.",
	}
	for _, tc := range []struct{ k, size int }{{2, 8}, {3, 6}, {4, 5}} {
		s := float64(tc.size) / 1.2
		eps := 0.2
		var sumF, sumUD, verified int
		for i := 0; i < trials; i++ {
			parts := completeParts(tc.k, tc.size)
			full, err := hypergraph.Complete(parts, 1<<21)
			if err != nil {
				return nil, err
			}
			minEdges := int(math.Pow(s, float64(tc.k))) + 1
			perm := rng.Perm(len(full.Edges))
			keep := minEdges + rng.Intn(len(full.Edges)-minEdges+1)
			sub := &hypergraph.Partite{Parts: parts, Edges: make([]hypergraph.Edge, 0, keep)}
			for _, idx := range perm[:keep] {
				sub.Edges = append(sub.Edges, full.Edges[idx])
			}
			res, err := hypergraph.Lemma5(sub, s, eps)
			if err != nil {
				return nil, fmt.Errorf("E4 k=%d trial %d: %w", tc.k, i, err)
			}
			if err := hypergraph.VerifyLemma5(sub, res, s, eps); err != nil {
				return nil, fmt.Errorf("E4 k=%d trial %d: %w", tc.k, i, err)
			}
			verified++
			sumF += len(res.F)
			sumUD += len(res.Support(tc.k)[res.D])
		}
		t.AddRow(tc.k, tc.size, trials,
			float64(sumF)/float64(trials), float64(sumUD)/float64(trials),
			s*1.2*0.6, verified)
	}
	return []Table{t}, nil
}

// completeParts returns k parts of size vertices each, numbered
// consecutively from 0.
func completeParts(k, size int) [][]hypergraph.Vertex {
	parts := make([][]hypergraph.Vertex, k)
	id := 0
	for i := range parts {
		parts[i] = make([]hypergraph.Vertex, size)
		for j := range parts[i] {
			parts[i][j] = hypergraph.Vertex(id)
			id++
		}
	}
	return parts
}

// --- E5 ----------------------------------------------------------------------

func runE5(opts Options) ([]Table, error) {
	m := 1
	draws := 10
	if opts.Full {
		m = 3
		draws = 50
	}
	k, partSize, groupSize := hiding.PaperConfig(1, 1)

	groups := make([][]hiding.Proc, m)
	id := 0
	for i := range groups {
		groups[i] = make([]hiding.Proc, groupSize)
		for j := range groups[i] {
			groups[i][j] = hiding.Proc(id)
			id++
		}
	}
	ops := hiding.UniformOp(groups, memory.Add(1)) // 1-bit toggles
	apply, err := hiding.RegisterApply(1, ops)
	if err != nil {
		return nil, err
	}
	cert, err := hiding.Construct(hiding.Config{
		Groups: groups, Y0: 0, ValueBits: 1, Delta: 1, K: k, PartSize: partSize, Apply: apply,
	})
	if err != nil {
		return nil, err
	}
	if err := cert.Verify(); err != nil {
		return nil, err
	}

	t := Table{
		Title:  "E5: Process-Hiding Lemma at the paper's constants (ℓ=1, δ=1, k=4ℓ, parts ⌊27δℓ⌋, groups 108δℓ²)",
		Header: []string{"group", "|V_i| (alphas)", "reservoir |U_i\\V_i|", "d_i", "|F_i|", "y_{i-1}→y_i"},
		Note: fmt.Sprintf("register: 1-bit FAA(1) toggles; %d group(s) of %d processes; "+
			"guaranteed discovered-set budget |D| ≤ %d; the adversarial-D verification and "+
			"%d random draws all yielded hidden processes for ≥ half the groups.",
			m, groupSize, cert.MaxD, draws),
	}
	for i, g := range cert.Groups {
		t.AddRow(i, len(g.V), len(g.Reservoir), g.D, len(g.F),
			fmt.Sprintf("%d→%d", g.YPrev, g.Y))
	}

	// Random-D draws (the adversarial D is covered by Verify above).
	rng := rand.New(rand.NewSource(5 + opts.Seed))
	var all []hiding.Proc
	for _, g := range groups {
		all = append(all, g...)
	}
	for d := 0; d < draws; d++ {
		size := rng.Intn(cert.MaxD + 1)
		perm := rng.Perm(len(all))
		set := make([]hiding.Proc, size)
		for i := 0; i < size; i++ {
			set[i] = all[perm[i]]
		}
		hid, err := cert.ForD(set)
		if err != nil {
			return nil, fmt.Errorf("E5 draw %d: %w", d, err)
		}
		if err := cert.VerifyHidden(set, hid); err != nil {
			return nil, fmt.Errorf("E5 draw %d: %w", d, err)
		}
	}
	return []Table{t}, nil
}

// --- E6 ----------------------------------------------------------------------

func runE6(opts Options) ([]Table, error) {
	ns := []int{8, 16, 32}
	if opts.Full {
		ns = append(ns, 64, 128)
	}
	type entry struct {
		alg    mutex.Algorithm
		class  string
		dsmRow bool
	}
	entries := []entry{
		{tas.New(), "unbounded (spin)", true},
		{ticket.New(), "Θ(contenders) CC", true},
		{mcs.New(), "O(1) [20,21]", true},
		{clh.New(), "O(1) [6]", true},
		{tournament.New(), "Θ(log n) r/w, CC-only Peterson", false},
		{yatree.New(), "Θ(log n) r/w, DSM-local [23]", true},
		{grlock.New(), "O(n) RME [12]", true},
		{rspin.New(), "unbounded RME", true},
		{watree.New(watree.WithFanout(2)), "Θ(log n) RME [16]", true},
		{watree.New(), "Θ(log_w n) RME [19]", true},
	}
	t := Table{
		Title:  "E6: landscape — max RMRs per passage (w=16, 2 passes, contended round-robin)",
		Header: []string{"algorithm", "complexity class"},
		Note: "The paper's §1/§1.2 survey, measured: the O(n) scan grows linearly, the trees " +
			"logarithmically, the queue lock stays constant, and the spin locks grow with " +
			"contention. DSM columns are omitted for the CC-only tournament.",
	}
	for _, n := range ns {
		t.Header = append(t.Header, fmt.Sprintf("CC n=%d", n))
	}
	for _, n := range ns {
		t.Header = append(t.Header, fmt.Sprintf("DSM n=%d", n))
	}
	var specs []engine.RunSpec
	for _, e := range entries {
		for _, n := range ns {
			specs = append(specs, engine.RunSpec{Session: mutex.Config{
				Procs: n, Width: 16, Model: sim.CC, Algorithm: e.alg, Passes: 2, NoTrace: true,
			}})
		}
	}
	results := engine.Run(specs, opts.engineOpts())
	idx := 0
	for _, e := range entries {
		row := []interface{}{e.alg.Name(), e.class}
		var dsmVals []interface{}
		for _, n := range ns {
			r := results[idx]
			idx++
			if r.Err != nil {
				return nil, fmt.Errorf("E6 %s n=%d: %w", e.alg.Name(), n, r.Err)
			}
			row = append(row, r.MaxRMRCC)
			if e.dsmRow {
				dsmVals = append(dsmVals, r.MaxRMRDSM)
			} else {
				dsmVals = append(dsmVals, "-")
			}
		}
		row = append(row, dsmVals...)
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// --- E7 ----------------------------------------------------------------------

func runE7(opts Options) ([]Table, error) {
	n := 12
	if opts.Full {
		n = 24
	}
	t := Table{
		Title:  "E7: crash steps rescue hiding (paper §1.1)",
		Header: []string{"algorithm", "crashes allowed", "hiding attempts", "hiding kept", "survivors", "survivor RMRs"},
		Note: "Against the FAS queue (MCS) without crashes, the hiding verification rejects " +
			"every candidate (each FAS return names the predecessor) and the active set " +
			"collapses; against recoverable single-cell locks, the crash-recover-complete " +
			"manoeuvre keeps a hidden process active.",
	}
	algs := []mutex.Algorithm{
		mcs.New(),
		rspin.New(),
		grlock.New(),
		watree.New(watree.WithFanout(2)),
	}
	cfgs := make([]mutex.Config, len(algs))
	for i, alg := range algs {
		cfgs[i] = mutex.Config{Procs: n, Width: 16, Model: sim.CC, Algorithm: alg}
	}
	reps, err := adversaryGrid("E7", cfgs, 4, opts)
	if err != nil {
		return nil, err
	}
	for i, alg := range algs {
		rep := reps[i]
		kept := 0
		for _, r := range rep.Rounds {
			kept += r.HiddenKept
		}
		t.AddRow(alg.Name(), alg.Recoverable(), rep.HidingAttempts, kept,
			len(rep.Survivors), fmt.Sprint(rep.SurvivorRMRs))
	}
	return []Table{t}, nil
}

// --- E8 ----------------------------------------------------------------------

func runE8(opts Options) ([]Table, error) {
	ns := []int{16, 64}
	if opts.Full {
		ns = append(ns, 256)
	}
	t := Table{
		Title:  "E8: invariant audit across adversary constructions",
		Header: []string{"algorithm", "model", "n", "w", "replays", "rollbacks", "violations"},
		Note: "replays = verified schedule restrictions (the proof's table columns " +
			"materialized); rollbacks = erasures rejected by the observable comparison " +
			"(handled conservatively); violations must be zero.",
	}
	if opts.Full {
		t.Note += " grlock's n=256 rows run at w=16, since its tickets need 9 bits there."
	}
	var cfgs []mutex.Config
	for _, model := range []sim.Model{sim.CC, sim.DSM} {
		for _, n := range ns {
			for _, alg := range []mutex.Algorithm{watree.New(), grlock.New()} {
				w := word.Width(8)
				if alg.Name() == "grlock" && n == 256 {
					w = 16
				}
				cfgs = append(cfgs, mutex.Config{Procs: n, Width: w, Model: model, Algorithm: alg})
			}
		}
	}
	reps, err := adversaryGrid("E8", cfgs, 0, opts)
	if err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		rep := reps[i]
		t.AddRow(cfg.Algorithm.Name(), cfg.Model.String(), cfg.Procs, int(cfg.Width),
			rep.Replays, rep.RemovalRollbacks, len(rep.InvariantViolations))
	}
	return []Table{t}, nil
}
