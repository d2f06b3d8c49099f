package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"rme/internal/adversary"
	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/watree"
	"rme/internal/algorithms/yatree"
	"rme/internal/check"
	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/service"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/word"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// unit names the deterministic work unit that work_per_s counts.
	unit string
	// parallel is the engine worker count a pass runs at.
	parallel int
	// prepare derives the workload's inputs from the seed and builds, once,
	// every machine shape a pass uses. It is what setup_s times.
	prepare func(seed int64, parallel int) (passFunc, error)
}

// passFunc runs one closed-loop pass and checks its outputs against the
// pinned values; a non-nil error is a failed pass. tr and reg are nil in the
// untraced run.
type passFunc func(tr *tracer, reg *telemetry.Registry) (passOut, error)

// passOut is what a pass hands back.
type passOut struct {
	work   int64  // deterministic work units completed
	digest string // sha256 of the pass's deterministic outputs
	// layers holds per-layer values derived from spans, telemetry and the
	// outputs; filled only when the pass is traced.
	layers map[string]float64
}

var workloads = []workload{
	{name: "adversary-e1", unit: "verified replays", parallel: 1, prepare: prepareE1},
	// The searches run at one worker: a second one buys no wall time on a
	// two-CPU box but takes about a quarter more CPU, and the pass's time
	// then follows what the host leaves of the second CPU.
	{name: "checker-certify", unit: "states visited", parallel: 1, prepare: prepareCertify},
	{name: "service-zipf", unit: "passages", parallel: enginePar, prepare: prepareService},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ratio is a/b, or 0 when b is 0 (a metric must never be NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- adversary-e1 -----------------------------------------------------------

// e1Cell is one adversary construction of the E1 grid with the row it must
// reproduce (EXPERIMENTS.md, tables E1 and E1b).
type e1Cell struct {
	alg       string
	n         int
	w         word.Width
	rounds    int
	forced    int
	survivors int
}

func (c e1Cell) label() string { return fmt.Sprintf("%s n=%d w=%d", c.alg, c.n, c.w) }

var e1Cells = []e1Cell{
	{"watree", 16, 4, 6, 6, 1}, {"watree", 16, 8, 6, 6, 1},
	{"watree", 16, 16, 2, 2, 16}, {"watree", 16, 64, 2, 2, 16},
	{"watree", 64, 4, 10, 10, 1}, {"watree", 64, 8, 6, 6, 1},
	{"watree", 64, 16, 6, 6, 1}, {"watree", 64, 64, 2, 2, 64},
	{"watree", 256, 4, 14, 14, 1}, {"watree", 256, 8, 10, 10, 1},
	{"watree", 256, 16, 6, 6, 1}, {"watree", 256, 64, 6, 6, 1},
	{"yatree", 16, 16, 14, 14, 1}, {"yatree", 64, 16, 22, 22, 1},
	{"yatree", 256, 16, 30, 30, 1},
}

// e1Totals are the aggregates of the E1 entry in runs/baseline.jsonl.
type e1Totals struct {
	runs, steps, maxRMR, avgMaxRMRx100 int
}

// e1Want pins the E1 ledger counters and the digest of every cell's report.
type e1Want struct {
	cells  []e1Cell
	totals e1Totals
	digest string
}

var e1Pinned = e1Want{
	cells:  e1Cells,
	totals: e1Totals{runs: 15, steps: 2323, maxRMR: 30, avgMaxRMRx100: 947},
	digest: "2143b2f8b45e9965fc1de7209bba0175dcc52fdb65bf083ae1092d9845ba344b",
}

func prepareE1(seed int64, _ int) (passFunc, error) { return e1Pass(e1Pinned, seed) }

func e1Alg(name string) mutex.Algorithm {
	if name == "yatree" {
		return yatree.New()
	}
	return watree.New()
}

// e1Pass builds the grid's sessions once and returns the pass. The seed
// fixes the order the cells run in; each cell's outputs do not depend on it.
func e1Pass(want e1Want, seed int64) (passFunc, error) {
	order := rand.New(rand.NewSource(seed)).Perm(len(want.cells))
	cfgs := make([]mutex.Config, len(want.cells))
	for i, c := range want.cells {
		cfgs[i] = mutex.Config{Procs: c.n, Width: c.w, Model: sim.CC, Algorithm: e1Alg(c.alg)}
		a, err := adversary.New(adversary.Config{Session: cfgs[i]})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label(), err)
		}
		a.Close()
	}
	return func(tr *tracer, reg *telemetry.Registry) (passOut, error) {
		mark := tr.mark()
		reps := make([]*adversary.Report, len(cfgs))
		for _, i := range order {
			label := want.cells[i].label()
			tr.begin("adversary.new", label)
			a, err := adversary.New(adversary.Config{Session: cfgs[i], Telemetry: reg})
			tr.end()
			if err != nil {
				return passOut{}, fmt.Errorf("%s: %w", label, err)
			}
			tr.begin("adversary.run", label)
			reps[i], err = a.Run()
			tr.end()
			a.Close()
			if err != nil {
				return passOut{}, fmt.Errorf("%s: %w", label, err)
			}
		}
		return e1Check(want, reps, tr, mark, reg)
	}, nil
}

// e1Check compares the reports with the pinned rows, totals and digest.
func e1Check(want e1Want, reps []*adversary.Report, tr *tracer, mark int, reg *telemetry.Registry) (passOut, error) {
	var got e1Totals
	var replays, rollbacks, attempts, wins, rounds, forcedSum int
	h := sha256.New()
	for i, c := range want.cells {
		r := reps[i]
		if len(r.InvariantViolations) > 0 {
			return passOut{}, fmt.Errorf("%s: invariant violations: %v", c.label(), r.InvariantViolations)
		}
		if r.ViableRounds != c.rounds || r.ForcedRMRs() != c.forced || len(r.Survivors) != c.survivors {
			return passOut{}, fmt.Errorf("%s: rounds/forced/survivors %d/%d/%d, want %d/%d/%d", c.label(),
				r.ViableRounds, r.ForcedRMRs(), len(r.Survivors), c.rounds, c.forced, c.survivors)
		}
		fmt.Fprintf(h, "%s rounds=%d forced=%d survivors=%d steps=%d replays=%d rollbacks=%d hiding=%d/%d\n",
			c.label(), r.ViableRounds, r.ForcedRMRs(), len(r.Survivors), r.Steps,
			r.Replays, r.RemovalRollbacks, r.HidingWins, r.HidingAttempts)
		got.runs++
		got.steps += r.Steps
		got.maxRMR = max(got.maxRMR, r.ForcedRMRs())
		forcedSum += r.ForcedRMRs()
		replays += r.Replays
		rollbacks += r.RemovalRollbacks
		attempts += r.HidingAttempts
		wins += r.HidingWins
		rounds += len(r.Rounds)
	}
	got.avgMaxRMRx100 = int(math.Round(float64(forcedSum) * 100 / float64(got.runs)))
	if got != want.totals {
		return passOut{}, fmt.Errorf("E1 totals %+v, want %+v", got, want.totals)
	}
	out := passOut{work: int64(replays), digest: hex.EncodeToString(h.Sum(nil))}
	if out.digest != want.digest {
		return out, fmt.Errorf("E1 digest %s, want %s", out.digest, want.digest)
	}
	if tr == nil {
		return out, nil
	}
	runS := tr.sum(mark, "adversary.run")
	ex := reg.Export()
	reuse, build := float64(ex["engine_session_reuse"]), float64(ex["engine_session_build"])
	out.layers = map[string]float64{
		"adversary.new_s":                   tr.sum(mark, "adversary.new"),
		"adversary.run_s":                   runS,
		"adversary.run_s.yatree256":         tr.find(mark, "adversary.run", "yatree n=256 w=16"),
		"adversary.replays":                 float64(replays),
		"adversary.rollbacks":               float64(rollbacks),
		"adversary.rollback_ratio":          ratio(float64(rollbacks), float64(replays+rollbacks)),
		"adversary.hiding_attempts":         float64(attempts),
		"adversary.hiding_wins":             float64(wins),
		"adversary.hiding_win_ratio":        ratio(float64(wins), float64(attempts)),
		"adversary.rounds":                  float64(rounds),
		"adversary.ms_per_replay":           ratio(runS*1e3, float64(replays)),
		"engine.session_reuse.adversary-e1": reuse,
		"engine.session_build.adversary-e1": build,
		"engine.reuse_ratio.adversary-e1":   ratio(reuse, reuse+build),
	}
	return out, nil
}

// --- checker-certify --------------------------------------------------------

// certSearch is one exhaustive search with the counts it must reproduce.
type certSearch struct {
	name   string
	cfg    check.Config
	states int
	steps  int64
}

type certWant struct {
	searches []certSearch
	digest   string
}

var certPinned = certWant{
	searches: []certSearch{
		{
			// CI's n=4 certification: crash-free rspin under symmetry
			// reduction and the wave-sealed shared visited set.
			name: "rspin n=4",
			cfg: check.Config{
				Session:      mutex.Config{Procs: 4, Width: 8, Model: sim.CC, Algorithm: rspin.New()},
				MaxSchedules: 2_000_000, MaxStates: 10_000_000,
				Memo: true, POR: true, Symmetry: true, SharedVisited: true, WaveSize: 1,
			},
			states: 49_788, steps: 821_024,
		},
		{
			// E13's largest row: one crash per process, private visited sets.
			name: "watree n=2 crashes=1",
			cfg: check.Config{
				Session:        mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: watree.New()},
				CrashesPerProc: 1,
				MaxSchedules:   10_000_000, MaxStates: 32_000_000,
				Memo: true, POR: true,
			},
			states: 174_909, steps: 2_625_688,
		},
	},
	digest: "aabd1b97e15854a4c4aeea419382e47cebc8fc34707250970a60aef0f56bbeec",
}

func prepareCertify(seed int64, parallel int) (passFunc, error) {
	return certPass(certPinned, seed, parallel)
}

// certPass fixes the searches' fingerprint seed and order from the seed;
// neither changes what a search explores.
func certPass(want certWant, seed int64, parallel int) (passFunc, error) {
	order := rand.New(rand.NewSource(seed)).Perm(len(want.searches))
	cfgs := make([]check.Config, len(want.searches))
	for i, s := range want.searches {
		cfgs[i] = s.cfg
		cfgs[i].Seed = seed
		cfgs[i].Parallel = parallel
		sess, err := mutex.NewSession(s.cfg.Session)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		sess.CanonicalStateKey(uint64(seed))
		sess.Close()
	}
	return func(tr *tracer, reg *telemetry.Registry) (passOut, error) {
		mark := tr.mark()
		res := make([]*check.Result, len(cfgs))
		for _, i := range order {
			cfg := cfgs[i]
			cfg.Telemetry = reg
			tr.begin("check.exhaustive", want.searches[i].name)
			r, err := check.Exhaustive(cfg)
			tr.end()
			if err != nil {
				return passOut{}, fmt.Errorf("%s: %w", want.searches[i].name, err)
			}
			res[i] = r
		}
		return certCheck(want, res, tr, mark, reg)
	}, nil
}

func certCheck(want certWant, res []*check.Result, tr *tracer, mark int, reg *telemetry.Registry) (passOut, error) {
	var visited, pruned, slept, shared int
	var steps, replay int64
	h := sha256.New()
	for i, s := range want.searches {
		r := res[i]
		if err := r.Err(); err != nil {
			return passOut{}, fmt.Errorf("%s: %w", s.name, err)
		}
		if r.Truncated || r.DepthTruncated > 0 {
			return passOut{}, fmt.Errorf("%s: search truncated", s.name)
		}
		if r.StatesVisited != s.states || r.MachineSteps != s.steps {
			return passOut{}, fmt.Errorf("%s: %d states, %d machine steps; want %d, %d",
				s.name, r.StatesVisited, r.MachineSteps, s.states, s.steps)
		}
		fmt.Fprintf(h, "%s complete=%d visited=%d pruned=%d shared=%d sleep=%d waves=%d steps=%d replay=%d\n",
			s.name, r.Complete, r.StatesVisited, r.StatesPruned, r.SharedPruned, r.SleepPruned,
			r.Waves, r.MachineSteps, r.ReplaySteps)
		visited += r.StatesVisited
		pruned += r.StatesPruned
		slept += r.SleepPruned
		shared += r.SharedPruned
		steps += r.MachineSteps
		replay += r.ReplaySteps
	}
	out := passOut{work: int64(visited), digest: hex.EncodeToString(h.Sum(nil))}
	if out.digest != want.digest {
		return out, fmt.Errorf("checker digest %s, want %s", out.digest, want.digest)
	}
	if tr == nil {
		return out, nil
	}
	searchS := tr.sum(mark, "check.exhaustive")
	ex := reg.Export()
	out.layers = map[string]float64{
		"check.states_visited":      float64(visited),
		"check.states_pruned":       float64(pruned),
		"check.sleep_pruned":        float64(slept),
		"check.shared_pruned":       float64(shared),
		"check.machine_steps":       float64(steps),
		"check.replay_steps":        float64(replay),
		"check.replay_ratio":        ratio(float64(replay), float64(steps)),
		"check.prune_ratio":         ratio(float64(pruned), float64(visited+pruned)),
		"check.us_per_state":        ratio(searchS*1e6, float64(visited)),
		"check.ns_per_machine_step": ratio(searchS*1e9, float64(steps)),
		"check.restore_len_mean": ratio(float64(ex["check_restore_replay_len_sum"]),
			float64(ex["check_restore_replay_len_count"])),
	}
	return out, nil
}

// --- service-zipf -----------------------------------------------------------

// servicePassages is the passage target of one service pass.
const servicePassages = 50_000

type serviceWant struct {
	target int64
	// digests maps each arrival-stream seed to the sha256 of its encoded
	// service.Report.
	digests map[int64]string
}

var servicePinned = serviceWant{
	target: servicePassages,
	digests: map[int64]string{
		7:  "ae9ba30e9ed1a312566ed1445a65f034b176f7b3c78d368cc2275f69b1b312e4",
		8:  "e8a9cb1b194ce3167e84ba839fbc0d8749140010c931ea1fdd8691496aadbe35",
		9:  "0eb11cb37729612cfd03d7d6241027508b6ea3b5bd546d243df40b03f1841e9a",
		10: "82b00259f7fa40eddf4a1d6a07212c9b5404a5569e2a497da303e3e020319d0b",
		11: "478b84bc687837780533497395a57bedd29e9a23471e9d7b7f6efc09613e7c18",
		12: "b1011aca679a13e875c570366656bb6ae86a5566698f7123e831f7efe24da699",
		13: "f7937397411d3ae490c682ad79b2093c2bf00b977240c3e1f42e438b7b4f1375",
		14: "511d4875b695fa3f9abb0138621c8ba69b8e57eee3fb0793a4a31ed399dcda5a",
	},
}

// serviceSeed maps the benchmark seed onto the eight pinned stream seeds
// 7..14; seed 0 gives the acceptance run's seed 7.
func serviceSeed(seed int64) int64 { return 7 + (seed%8+8)%8 }

func prepareService(seed int64, parallel int) (passFunc, error) {
	return servicePass(servicePinned, seed, parallel)
}

func servicePass(want serviceWant, seed int64, parallel int) (passFunc, error) {
	dist, err := service.ParseDist("zipf:1.1")
	if err != nil {
		return nil, err
	}
	cfg := service.Config{
		Locks: 64, Clients: 1_000_000, Passages: want.target, Dist: dist,
		Seed: serviceSeed(seed), Algorithm: watree.New(), Model: sim.CC, Width: 8,
		Parallel: parallel,
	}
	stream, err := service.NewStream(dist, cfg.Clients, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2*cfg.Locks*8; i++ {
		stream.Next()
	}
	for n := 1; n <= 8; n++ {
		s, err := mutex.NewSession(mutex.Config{Procs: n, Width: cfg.Width, Model: cfg.Model,
			Algorithm: cfg.Algorithm, NoTrace: true})
		if err != nil {
			return nil, err
		}
		s.Close()
	}
	return func(tr *tracer, reg *telemetry.Registry) (passOut, error) {
		c := cfg
		c.Telemetry = reg
		tr.begin("service.run", "")
		rep, err := service.Run(c)
		runS := tr.end().Seconds()
		if err != nil {
			return passOut{}, err
		}
		return serviceCheck(want, c, rep, runS, reg)
	}, nil
}

func serviceCheck(want serviceWant, cfg service.Config, rep *service.Report, runS float64, reg *telemetry.Registry) (passOut, error) {
	if rep.Passages < want.target {
		return passOut{}, fmt.Errorf("service: %d passages, want at least %d", rep.Passages, want.target)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return passOut{}, err
	}
	sum := sha256.Sum256(b)
	out := passOut{work: rep.Passages, digest: hex.EncodeToString(sum[:])}
	if w := want.digests[cfg.Seed]; out.digest != w {
		return out, fmt.Errorf("service seed %d: report digest %s, want %s", cfg.Seed, out.digest, w)
	}
	if reg == nil {
		return out, nil
	}
	ex := reg.Export()
	reuse, build := float64(ex["engine_session_reuse"]), float64(ex["engine_session_build"])
	workers := float64(engine.Parallelism(cfg.Parallel))
	out.layers = map[string]float64{
		"service.passages":       float64(rep.Passages),
		"service.rounds":         float64(rep.Rounds),
		"service.arrivals":       float64(rep.Arrivals),
		"service.steps":          float64(rep.Steps),
		"service.us_per_passage": ratio(runS*1e6, float64(rep.Passages)),
		"service.ns_per_step":    ratio(runS*1e9, float64(rep.Steps)),
		"engine.busy_frac":       ratio(float64(ex["engine_busy_ns"]), runS*1e9*workers),
		"engine.session_reuse":   reuse,
		"engine.session_build":   build,
		"engine.reuse_ratio":     ratio(reuse, reuse+build),
	}
	return out, nil
}
