// Package rme is a laboratory for recoverable mutual exclusion (RME) built
// around the PODC 2023 paper "Word-Size RMR Tradeoffs for Recoverable Mutual
// Exclusion" (Chan, Giakkoupis, Woelfel): a deterministic shared-memory
// simulator with CC/DSM remote-memory-reference accounting, w-bit words,
// and individual crash steps; a suite of conventional and recoverable
// mutual exclusion algorithms; the paper's combinatorial machinery
// (Lemmas 4, 5, and the Process-Hiding Lemma) implemented constructively;
// and an operational lower-bound adversary that forces the paper's
// Ω(min(log_w n, log n / log log n)) RMR bound on real executions.
//
// # Quick start
//
//	cfg := rme.Config{
//		Procs:     8,
//		Width:     8,                 // 8-bit words
//		Model:     rme.CC,            // cache-coherent cost model
//		Algorithm: rme.MustAlgorithm("watree"),
//		Passes:    2,
//	}
//	s, err := rme.NewSession(cfg)
//	if err != nil { ... }
//	defer s.Close()
//	if err := s.RunRoundRobin(); err != nil { ... }
//	fmt.Println("worst passage cost:", s.MaxPassageRMRs(rme.CC), "RMRs")
//
// Crash injection, adversarial scheduling, model checking, and the
// experiment harness are exposed through NewAdversary, Exhaustive/Stress,
// and Experiments. For real-hardware benchmarking the same algorithms run
// on sync/atomic via NewNativeLock.
package rme

import (
	"fmt"
	"sort"
	"strings"

	"rme/internal/adversary"
	"rme/internal/algorithms/clh"
	"rme/internal/algorithms/grlock"
	"rme/internal/algorithms/mcs"
	"rme/internal/algorithms/qword"
	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tas"
	"rme/internal/algorithms/ticket"
	"rme/internal/algorithms/tournament"
	"rme/internal/algorithms/watree"
	"rme/internal/algorithms/yatree"
	"rme/internal/check"
	"rme/internal/engine"
	"rme/internal/harness"
	"rme/internal/hiding"
	"rme/internal/hypergraph"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// Core model types, re-exported from the internal packages.
type (
	// Word is a shared-memory cell value.
	Word = word.Word
	// Width is the word size w in bits.
	Width = word.Width
	// Model selects the RMR cost model.
	Model = sim.Model
	// Machine is the deterministic simulator.
	Machine = sim.Machine
	// Schedule is a replayable sequence of step/crash actions.
	Schedule = sim.Schedule
	// Event is one trace entry.
	Event = sim.Event
	// Fingerprint is a 128-bit canonical-state hash for memoized search.
	Fingerprint = sim.Fingerprint

	// Algorithm is a mutual exclusion algorithm family.
	Algorithm = mutex.Algorithm
	// Handle is a process's lock interface (Lock/Unlock/Recover).
	Handle = mutex.Handle
	// Config describes a simulated session.
	Config = mutex.Config
	// Session is a driven execution with safety monitors.
	Session = mutex.Session
	// PassageStat records RMRs per passage.
	PassageStat = mutex.PassageStat
	// RandomRunOptions tunes randomized runs.
	RandomRunOptions = mutex.RandomRunOptions
	// NativeLock runs an Algorithm on real sync/atomic memory.
	NativeLock = mutex.NativeLock
	// NativeHandle is one process's native lock interface: a sync.Locker
	// with Recover and panic-based crash injection (CrashAfter/Super).
	NativeHandle = mutex.NativeHandle
	// RecoverStatus reports where Recover left a process.
	RecoverStatus = mutex.RecoverStatus

	// AdversaryConfig parameterizes the lower-bound adversary.
	AdversaryConfig = adversary.Config
	// Adversary is the Theorem 1 round construction.
	Adversary = adversary.Adversary
	// AdversaryReport is its outcome.
	AdversaryReport = adversary.Report

	// CheckConfig parameterizes the model checker.
	CheckConfig = check.Config
	// CheckResult is a checker outcome.
	CheckResult = check.Result

	// RunSpec describes one simulation run for the execution engine.
	RunSpec = engine.RunSpec
	// RunResult is the engine's per-spec outcome, in submission order.
	RunResult = engine.Result
	// RunOptions tunes an engine batch (parallelism, metrics).
	RunOptions = engine.Options
	// Worker recycles simulated machines across runs (reset-reuse).
	Worker = engine.Worker
	// EngineMetrics accumulates run statistics across engine launches.
	EngineMetrics = engine.Metrics

	// Experiment is one of the paper-claim reproductions E1–E8 or the
	// extensions E9–E13.
	Experiment = harness.Experiment
	// ExperimentOptions tunes experiment scale.
	ExperimentOptions = harness.Options
	// Table is a rendered experiment result.
	Table = harness.Table

	// HidingConfig parameterizes the Process-Hiding Lemma construction.
	HidingConfig = hiding.Config
	// HidingCertificate is a Lemma 2 certificate.
	HidingCertificate = hiding.Certificate
	// Hypergraph is an explicit k-partite hypergraph (Lemmas 4 and 5).
	Hypergraph = hypergraph.Partite
)

// Cost models.
const (
	// CC is the cache-coherent model.
	CC = sim.CC
	// DSM is the distributed shared memory model.
	DSM = sim.DSM
)

// Recover outcomes, re-exported for NativeHandle.Recover callers.
const (
	// RecoverAcquired means the crash left the process holding the lock.
	RecoverAcquired = mutex.RecoverAcquired
	// RecoverReleased means the interrupted super-passage completed.
	RecoverReleased = mutex.RecoverReleased
	// RecoverIdle means the crash left no visible effect; start over.
	RecoverIdle = mutex.RecoverIdle
)

// NewSession builds a simulated machine running the configured algorithm,
// with every process poised at its first entry step.
func NewSession(cfg Config) (*Session, error) { return mutex.NewSession(cfg) }

// NewNativeLock instantiates an algorithm on the native sync/atomic backend
// for n processes at word width w (0 selects the full 64-bit word). Each
// participating goroutine calls Bind(id) for a handle that is a sync.Locker
// with Recover, crash injection (CrashAfter), and whole-super-passage
// driving (Super).
func NewNativeLock(alg Algorithm, n int, w Width) (*NativeLock, error) {
	return mutex.NewNativeLock(alg, n, w)
}

// IsInjectedCrash reports whether a recovered panic value is a CrashAfter
// crash, for callers driving Lock/Unlock/Recover manually.
func IsInjectedCrash(r any) bool { return mutex.IsInjectedCrash(r) }

// NewAdversary prepares the lower-bound adversary over a fresh session.
func NewAdversary(cfg AdversaryConfig) (*Adversary, error) { return adversary.New(cfg) }

// Exhaustive runs the bounded-exhaustive interleaving checker: a stateful
// search with visited-state memoization (CheckConfig.Memo), sleep-set
// partial-order reduction (CheckConfig.POR), and checkpointed backtracking.
func Exhaustive(cfg CheckConfig) (*CheckResult, error) { return check.Exhaustive(cfg) }

// ExhaustiveReference runs the unreduced seed DFS. It enumerates the same
// schedules as Exhaustive with Memo and POR off, at a higher machine-step
// cost; it exists as the differential-testing oracle for the stateful search.
func ExhaustiveReference(cfg CheckConfig) (*CheckResult, error) {
	return check.ExhaustiveReference(cfg)
}

// Stress runs randomized schedules with optional crash injection.
func Stress(cfg CheckConfig, seeds int, crashProb float64) (*CheckResult, error) {
	return check.Stress(cfg, seeds, crashProb)
}

// Run executes a batch of RunSpecs on the engine's deterministic worker
// pool: each worker resets its released sessions instead of rebuilding
// them, and results merge in submission order regardless of completion
// order, so output is identical at any parallelism.
func Run(specs []RunSpec, opts RunOptions) []RunResult { return engine.Run(specs, opts) }

// NewWorker returns an engine worker that keeps every session released to
// it and resets the most recent compatible one for the next request.
func NewWorker() *Worker { return engine.NewWorker() }

// Experiments returns the paper-claim reproductions E1–E8 followed by the
// extension experiments E9–E13.
func Experiments() []Experiment { return harness.All() }

// FindExperiment returns the experiment with the given id (e.g. "E2").
func FindExperiment(id string) (Experiment, bool) { return harness.Find(id) }

// ConstructHiding runs the Process-Hiding Lemma construction.
func ConstructHiding(cfg HidingConfig) (*HidingCertificate, error) { return hiding.Construct(cfg) }

// TheoreticalLowerBound evaluates the Theorem 1 bound shape
// min(log_w n, log n/log log n).
func TheoreticalLowerBound(w Width, n int) float64 { return word.TheoreticalLowerBound(w, n) }

// registry lists every built-in algorithm under the name NewAlgorithm
// accepts for it; Algorithms, AlgorithmNames and NewAlgorithm all read it.
var registry = []struct {
	name  string
	build func() Algorithm
}{
	{"tas", func() Algorithm { return tas.New() }},
	{"ticket", func() Algorithm { return ticket.New() }},
	{"mcs", func() Algorithm { return mcs.New() }},
	{"clh", func() Algorithm { return clh.New() }},
	{"tournament", func() Algorithm { return tournament.New() }},
	{"yatree", func() Algorithm { return yatree.New() }},
	{"grlock", func() Algorithm { return grlock.New() }},
	{"rspin", func() Algorithm { return rspin.New() }},
	{"watree", func() Algorithm { return watree.New() }},
	{"watree2", func() Algorithm { return watree.New(watree.WithFanout(2)) }},
	{"watree-fast", func() Algorithm { return watree.New(watree.WithFastPath()) }},
	{"qword", func() Algorithm { return qword.New() }},
}

// Algorithms returns the built-in algorithm registry, name-sorted:
//
//	tas         test-and-set spin lock (conventional, unbounded RMRs)
//	ticket      fetch-and-increment ticket lock (conventional)
//	mcs         MCS queue lock (conventional, O(1) RMRs)
//	clh         CLH-style queue lock (conventional, O(1) RMRs, CC)
//	tournament  Peterson tournament tree (conventional, Θ(log n), CC)
//	yatree      Yang–Anderson-class tournament (conventional, Θ(log n), CC and DSM)
//	grlock      recoverable bakery (O(n), reads/writes only)
//	rspin       recoverable CAS spin lock (unbounded RMRs)
//	watree      w-ary recoverable FAA tree (Θ(log_w n), Katzan–Morrison style)
//	watree2     the same tree at fan-out 2 (Θ(log n) recoverable tournament)
//	watree-fast the w-ary tree with the adaptive O(1) fast path (O(min(k, log_w n)))
//	qword       recoverable FIFO queue-in-a-word via custom atomic ops (w ≥ n·log n)
func Algorithms() []Algorithm {
	algs := make([]Algorithm, len(registry))
	for i, r := range registry {
		algs[i] = r.build()
	}
	sort.Slice(algs, func(i, j int) bool { return algs[i].Name() < algs[j].Name() })
	return algs
}

// AlgorithmNames lists the names NewAlgorithm accepts, in registry order.
func AlgorithmNames() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}

// NewAlgorithm returns a registry algorithm by name, case-insensitively (see
// Algorithms and AlgorithmNames), with "watree2" naming the fan-out-2 tree.
func NewAlgorithm(name string) (Algorithm, error) {
	for _, r := range registry {
		if strings.EqualFold(r.name, name) {
			return r.build(), nil
		}
	}
	return nil, fmt.Errorf("rme: unknown algorithm %q", name)
}

// MustAlgorithm is NewAlgorithm that panics on unknown names; for use in
// examples and tests.
func MustAlgorithm(name string) Algorithm {
	alg, err := NewAlgorithm(name)
	if err != nil {
		panic(err)
	}
	return alg
}

// WATree returns the w-ary recoverable tree with an explicit fan-out
// (fanout 0 means min(w, n)).
func WATree(fanout int) Algorithm {
	if fanout == 0 {
		return watree.New()
	}
	return watree.New(watree.WithFanout(fanout))
}
