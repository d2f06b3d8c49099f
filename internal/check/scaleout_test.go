package check_test

// Scale-out tests for the n=4 campaign machinery: symmetry reduction ratios,
// shared-visited-set determinism and budget composition, and the
// checkpoint/resume path. Everything here drives the public check API only;
// the soundness of the symmetry declarations themselves is established by
// TestSymmetryOracle, and verdict parity of every reduction mode by the
// differential suite.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/watree"
	"rme/internal/algorithms/yatree"
	"rme/internal/check"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/telemetry"
)

func scaleCfg(alg mutex.Algorithm, n, crashes int) check.Config {
	return check.Config{
		Session:        mutex.Config{Procs: n, Width: 8, Model: sim.CC, Algorithm: alg},
		CrashesPerProc: crashes,
		MaxSchedules:   2_000_000,
		MaxStates:      10_000_000,
		Memo:           true,
		POR:            true,
	}
}

func mustExhaustive(t *testing.T, cfg check.Config) *check.Result {
	t.Helper()
	res, err := check.Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSymmetryReductionRSpin pins the acceptance number for the full S_3
// group: canonicalizing rspin n=3 state keys must shrink the visited set at
// least 4x (the group order, 6, is the ceiling; sleep sets already break
// some of the symmetry, so the realized ratio sits between). Verdicts and
// truncation must be unaffected.
func TestSymmetryReductionRSpin(t *testing.T) {
	base := mustExhaustive(t, scaleCfg(rspin.New(), 3, 0))
	symCfg := scaleCfg(rspin.New(), 3, 0)
	symCfg.Symmetry = true
	sym := mustExhaustive(t, symCfg)
	if base.Truncated || sym.Truncated {
		t.Fatalf("runs truncated (base=%v sym=%v); budgets too small for a ratio claim",
			base.Truncated, sym.Truncated)
	}
	if base.Ok() != sym.Ok() {
		t.Fatalf("verdict changed under symmetry: base Ok=%v, sym Ok=%v", base.Ok(), sym.Ok())
	}
	if ratio := float64(base.StatesVisited) / float64(sym.StatesVisited); ratio < 4 {
		t.Errorf("rspin n=3 symmetry reduction %.2fx (%d -> %d states); want >= 4x",
			ratio, base.StatesVisited, sym.StatesVisited)
	}
	if sym.MachineSteps >= base.MachineSteps {
		t.Errorf("symmetry did not reduce machine steps: %d -> %d",
			base.MachineSteps, sym.MachineSteps)
	}
}

// TestSymmetryReductionYatree pins the order-2 ceiling case: yatree's n=3
// group is {id, (0 1)}, so the honest claim is ~2x, not more; the acceptance
// bar is 1.8x. The full n=3 tree is ~3.4M states (minutes on the 1-CPU
// measurement box), so the measurement runs only in the env-gated
// certification job alongside the n=4 slice.
func TestSymmetryReductionYatree(t *testing.T) {
	if os.Getenv("RME_CHECK_N4") == "" {
		t.Skip("set RME_CHECK_N4=1 to run the yatree n=3 measurement (full tree, minutes of CPU)")
	}
	base := mustExhaustive(t, scaleCfg(yatree.New(), 3, 0))
	symCfg := scaleCfg(yatree.New(), 3, 0)
	symCfg.Symmetry = true
	sym := mustExhaustive(t, symCfg)
	if base.Truncated || sym.Truncated {
		t.Fatalf("runs truncated (base=%v sym=%v)", base.Truncated, sym.Truncated)
	}
	if base.Ok() != sym.Ok() {
		t.Fatalf("verdict changed under symmetry: base Ok=%v, sym Ok=%v", base.Ok(), sym.Ok())
	}
	if ratio := float64(base.StatesVisited) / float64(sym.StatesVisited); ratio < 1.8 {
		t.Errorf("yatree n=3 symmetry reduction %.2fx (%d -> %d states); want >= 1.8x",
			ratio, base.StatesVisited, sym.StatesVisited)
	}
}

// TestWatreeSymmetryByteIdentity: watree declares no group (its FAA bit
// packing and slot-position handoff are not pid-equivariant), so -symmetry
// must be an exact no-op on it — not "same verdict", the same Result bytes.
func TestWatreeSymmetryByteIdentity(t *testing.T) {
	cfg := scaleCfg(watree.New(), 2, 1)
	cfg.MaxSchedules = 10_000
	cfg.MaxStates = 100_000
	base := mustExhaustive(t, cfg)
	cfg.Symmetry = true
	sym := mustExhaustive(t, cfg)
	if !reflect.DeepEqual(base, sym) {
		t.Fatalf("watree results differ with -symmetry on vs off:\n%+v\nvs\n%+v", base, sym)
	}
}

// TestSharedSetParallelParity locks the wave-determinism contract: wave
// membership, visibility, and seal contents are pure functions of the
// configuration, so the shared-set Result must be byte-identical at any
// Parallel value — with every other reduction stacked on top.
func TestSharedSetParallelParity(t *testing.T) {
	run := func(parallel int) *check.Result {
		cfg := scaleCfg(rspin.New(), 2, 1)
		cfg.Symmetry = true
		cfg.SharedVisited = true
		cfg.WaveSize = 1
		cfg.Parallel = parallel
		return mustExhaustive(t, cfg)
	}
	one := run(1)
	for _, p := range []int{4, 8} {
		if got := run(p); !reflect.DeepEqual(one, got) {
			t.Fatalf("shared-set results differ between Parallel=1 and %d:\n%+v\nvs\n%+v", p, one, got)
		}
	}
}

// TestSharedSetSkewedTreeNoStarvation composes the shared set with the
// budget-redistribution fix on the skewed rspin n2c1 crash tree: with the
// global caps set to exactly the shared-mode tree size, the hot branch must
// not stay truncated while global budget is unspent — at any parallelism.
func TestSharedSetSkewedTreeNoStarvation(t *testing.T) {
	shared := func(parallel, maxSched, maxStates int) *check.Result {
		cfg := check.Config{
			Session:        skewedSession(t),
			CrashesPerProc: 1,
			SharedVisited:  true,
			WaveSize:       1,
			POR:            false, // keep the tree identical to the PR 8 regression shape
			MaxSchedules:   maxSched,
			MaxStates:      maxStates,
			Parallel:       parallel,
		}
		return mustExhaustive(t, cfg)
	}
	full := shared(1, 1_000_000, 10_000_000)
	if full.Truncated {
		t.Fatalf("reference shared run truncated at generous caps: %+v", full)
	}

	// Exact cover: the even wave slices cannot hold the hot branch, so this
	// only reaches the full terminal count if redistribution hands it the
	// siblings' unspent budget. (Truncated may still read true here: a branch
	// whose DFS touches one more node after consuming its exact cap reports
	// conservatively. What redistribution must guarantee is that a truncation
	// claim never coexists with unspent global budget.)
	want := shared(1, full.Complete, full.StatesVisited)
	if want.Complete != full.Complete {
		t.Errorf("hot branch starved: complete = %d; want %d", want.Complete, full.Complete)
	}
	if want.Truncated && want.Complete < full.Complete && want.StatesVisited < full.StatesVisited {
		t.Errorf("truncated while global budget unspent (complete=%d/%d states=%d/%d)",
			want.Complete, full.Complete, want.StatesVisited, full.StatesVisited)
	}
	for _, p := range []int{4, 8} {
		if got := shared(p, full.Complete, full.StatesVisited); !reflect.DeepEqual(want, got) {
			t.Fatalf("skewed shared results differ between Parallel=1 and %d:\n%+v\nvs\n%+v", p, want, got)
		}
	}

	// With any slack at all past the exact cover, the search must come back
	// untruncated — the shared-mode analogue of the PR 8 regression check.
	slack := shared(1, full.Complete+4, full.StatesVisited+1000)
	if slack.Truncated {
		t.Errorf("truncated despite budget slack (complete=%d/%d states=%d/%d)",
			slack.Complete, full.Complete, slack.StatesVisited, full.StatesVisited)
	}
	if slack.Complete != full.Complete {
		t.Errorf("slack run complete = %d; want %d", slack.Complete, full.Complete)
	}
}

// certConfig is the spill/resume test configuration: every reduction on,
// one branch per wave so a MaxWaves cut lands mid-search.
func certConfig(t *testing.T, dir string) check.Config {
	cfg := scaleCfg(rspin.New(), 2, 1)
	cfg.Symmetry = true
	cfg.SharedVisited = true
	cfg.WaveSize = 1
	cfg.SpillDir = dir
	return cfg
}

// TestSpillResumeKillEquality is the kill test: stop a checkpointed run
// mid-flight (MaxWaves), resume it from disk, and require the final Result
// to be byte-identical to an uninterrupted run of the same configuration.
func TestSpillResumeKillEquality(t *testing.T) {
	finished := t.TempDir()
	want := mustExhaustive(t, certConfig(t, finished))

	dir := t.TempDir()
	killed := mustExhaustive(t, func() check.Config {
		cfg := certConfig(t, dir)
		cfg.MaxWaves = 2
		return cfg
	}())
	if !killed.Truncated {
		t.Fatalf("MaxWaves-stopped run must report truncation: %+v", killed)
	}
	if killed.Waves != 2 {
		t.Fatalf("stopped run completed %d waves, want 2", killed.Waves)
	}

	resumed := mustExhaustive(t, func() check.Config {
		cfg := certConfig(t, dir)
		cfg.Resume = true
		return cfg
	}())
	if !reflect.DeepEqual(want, resumed) {
		t.Fatalf("resumed Result differs from uninterrupted run:\n%+v\nvs\n%+v", want, resumed)
	}

	// Resuming a finished checkpoint replays the stored sub-results without
	// re-exploring; the Result must still be identical.
	again := mustExhaustive(t, func() check.Config {
		cfg := certConfig(t, dir)
		cfg.Resume = true
		return cfg
	}())
	if !reflect.DeepEqual(want, again) {
		t.Fatalf("re-resumed (done) Result differs:\n%+v\nvs\n%+v", want, again)
	}

	// A finished checkpoint resumes from its manifest alone: the run files
	// only seed later waves, so the uninterrupted run's checkpoint must
	// resume to its Result with every run file deleted.
	t.Run("finished-manifest-only", func(t *testing.T) {
		runs, err := filepath.Glob(filepath.Join(finished, "wave*.run"))
		if err != nil || len(runs) == 0 {
			t.Fatalf("finished search left no run files to delete (%v)", err)
		}
		for _, path := range runs {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
		resume := certConfig(t, finished)
		resume.Resume = true
		if got := mustExhaustive(t, resume); !reflect.DeepEqual(want, got) {
			t.Fatalf("manifest-only resume differs from the uninterrupted run:\n%+v\nvs\n%+v", want, got)
		}
	})
}

// TestResumeValidation pins the failure modes: Resume demands SharedVisited
// and SpillDir, a checkpoint must exist, a checkpoint written by a
// different configuration is rejected by digest, and a damaged one by the
// run loader, all before any exploration.
func TestResumeValidation(t *testing.T) {
	cfg := scaleCfg(rspin.New(), 2, 1)
	cfg.Resume = true
	if _, err := check.Exhaustive(cfg); err == nil || !strings.Contains(err.Error(), "SharedVisited") {
		t.Fatalf("Resume without SharedVisited: got err %v", err)
	}
	cfg.SharedVisited = true
	if _, err := check.Exhaustive(cfg); err == nil || !strings.Contains(err.Error(), "SpillDir") {
		t.Fatalf("Resume without SpillDir: got err %v", err)
	}
	cfg.SpillDir = t.TempDir()
	if _, err := check.Exhaustive(cfg); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("Resume from empty dir: got err %v", err)
	}

	dir := t.TempDir()
	partial := certConfig(t, dir)
	partial.MaxWaves = 1
	mustExhaustive(t, partial)
	mismatched := certConfig(t, dir)
	mismatched.Resume = true
	mismatched.Seed = 17 // part of the config digest
	if _, err := check.Exhaustive(mismatched); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("Resume with mismatched config: got err %v", err)
	}

	// A damaged checkpoint fails in the loader, with an error naming the run
	// file or the wave, before any exploration.
	for _, tc := range []struct {
		name, want string
		damage     func(t *testing.T, dir string)
	}{
		{"run size disagrees with its header count", "wave0000.run", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "wave0000.run")
			run, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// One record past the header count: the records the count covers
			// still read back, so only the size check can notice.
			const recordSize = 24
			if err := os.WriteFile(path, append(run, make([]byte, recordSize)...), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"run entry count disagrees with the manifest", "wave 0", func(t *testing.T, dir string) {
			editManifest(t, dir, func(man map[string]any) {
				run := man["runs"].([]any)[0].(map[string]any)
				run["entries"] = run["entries"].(float64) + 1
			})
		}},
		{"manifest has no run for a sealed wave", "sealed wave 0", func(t *testing.T, dir string) {
			editManifest(t, dir, func(man map[string]any) { man["runs"] = []any{} })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			partial := certConfig(t, dir)
			partial.MaxWaves = 1
			mustExhaustive(t, partial)
			tc.damage(t, dir)

			resume := certConfig(t, dir)
			resume.Resume = true
			reg := telemetry.New()
			resume.Telemetry = reg
			if _, err := check.Exhaustive(resume); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Resume over a damaged checkpoint: got err %v, want one naming %q", err, tc.want)
			}
			if steps := reg.Snapshot().Flat()["check_machine_steps"]; steps != 0 {
				t.Fatalf("Resume explored %d machine steps before rejecting the checkpoint", steps)
			}
		})
	}
}

// editManifest rewrites the checkpoint manifest in dir through edit.
func editManifest(t *testing.T, dir string, edit func(map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	edit(man)
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRejectsOldHash pins that a checkpoint written under the
// previous fingerprint hash fails with a version error: the spill run
// (version 1) and the manifest (version 3) each on their own.
func TestResumeRejectsOldHash(t *testing.T) {
	dir := t.TempDir()
	partial := certConfig(t, dir)
	partial.MaxWaves = 1
	mustExhaustive(t, partial)
	resume := certConfig(t, dir)
	resume.Resume = true

	runPath := filepath.Join(dir, "wave0000.run")
	run, err := os.ReadFile(runPath)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Clone(run)
	old[8] = 1 // little-endian version word at offset 8
	if err := os.WriteFile(runPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := check.Exhaustive(resume); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Resume over a version-1 spill run: got err %v", err)
	}
	if err := os.WriteFile(runPath, run, 0o644); err != nil {
		t.Fatal(err)
	}

	manPath := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man["version"] = 3
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := check.Exhaustive(resume); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("Resume from a version-3 manifest: got err %v", err)
	}
}

// TestCanonicalKeyCollisionCensus mirrors the sim fingerprint census at the
// canonical layer: over 10^5 distinct canonical equivalence classes gathered
// from random walks, the canonical key must be an orbit invariant (equal
// orbit representative -> equal key) and must not collide across distinct
// orbits. The orbit representative is the lexicographic minimum, over the
// declared group, of the variant encoding plus the renamed CS owner — a
// pure-bytes ground truth independent of the hash.
func TestCanonicalKeyCollisionCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("collision census is slow")
	}
	const target = 110_000
	const seed = 0xca11
	cfg := mutex.Config{Procs: 4, Width: 8, Model: sim.CC, Algorithm: rspin.New()}
	rng := rand.New(rand.NewSource(9))
	byOrbit := make(map[string]sim.Fingerprint, target)
	byKey := make(map[sim.Fingerprint]string, target)

	s, err := mutex.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sym := s.Symmetry()
	if sym == nil {
		t.Fatal("rspin n=4 must declare a symmetry group")
	}

	orbitRep := func() string {
		m := s.Machine()
		var best []byte
		for i := 0; i < m.NumVariants(sym); i++ {
			enc := m.CanonicalStateVariant(sym, i, nil)
			owner := s.CSOwner()
			if procTo := m.VariantProcMap(sym, i); owner >= 0 && procTo != nil {
				owner = procTo[owner]
			}
			enc = append(enc, byte(owner+1))
			if best == nil || bytes.Compare(enc, best) < 0 {
				best = enc
			}
		}
		return string(best)
	}

	for len(byOrbit) < target {
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		for {
			m := s.Machine()
			poised := m.PoisedProcs()
			if len(poised) == 0 {
				break
			}
			p := poised[rng.Intn(len(poised))]
			if rng.Intn(40) == 0 && m.Crashes(p) < 1 {
				if _, err := s.CrashProc(p); err != nil {
					t.Fatal(err)
				}
			} else if _, err := s.StepProc(p); err != nil {
				t.Fatal(err)
			}
			key, _ := s.CanonicalStateKey(seed)
			rep := orbitRep()
			if prev, ok := byOrbit[rep]; ok {
				if prev != key {
					t.Fatalf("same orbit, different canonical keys: %v vs %v", prev, key)
				}
				continue
			}
			byOrbit[rep] = key
			if other, ok := byKey[key]; ok && other != rep {
				t.Fatalf("canonical key collision %v between distinct orbits", key)
			}
			byKey[key] = rep
			if m.AllDone() {
				break
			}
		}
	}
}

// n4CertConfig is the gated n=4 certification slice: rspin with one crash
// per process, every reduction on, one branch per wave, every sealed wave
// checkpointed to a run file. The full n=4 crash tree is far beyond
// exhaustive reach, so the state cap bounds the slice; the certified
// properties are that the bounded run finds nothing and reproduces
// byte-identically from a mid-flight checkpoint.
func n4CertConfig(dir string) check.Config {
	cfg := scaleCfg(rspin.New(), 4, 1)
	cfg.Symmetry = true
	cfg.SharedVisited = true
	cfg.WaveSize = 1
	cfg.MaxSchedules = 10_000_000
	cfg.MaxStates = 300_000
	cfg.SpillDir = dir
	return cfg
}

// TestCertifyN4 is the env-gated n=4 certification (RME_CHECK_N4=1; several
// minutes of CPU). Crash-free rspin n=4 is certified in full under the
// symmetry reduction; the crash-budget slice exercises the checkpoint
// and the resume byte-identity acceptance.
func TestCertifyN4(t *testing.T) {
	if os.Getenv("RME_CHECK_N4") == "" {
		t.Skip("set RME_CHECK_N4=1 to run the n=4 certification")
	}
	t.Run("crash-free-full", func(t *testing.T) {
		cfg := scaleCfg(rspin.New(), 4, 0)
		cfg.Symmetry = true
		cfg.SharedVisited = true
		cfg.WaveSize = 1
		res := mustExhaustive(t, cfg)
		if res.Truncated {
			t.Fatalf("crash-free n=4 must complete exhaustively: %+v", res)
		}
		if !res.Ok() {
			t.Fatalf("crash-free n=4 found failures: violations=%v deadlocks=%v",
				res.Violations, res.Deadlocks)
		}
		t.Logf("crash-free n=4 certified: %d canonical states, %d schedules, %d machine steps",
			res.StatesVisited, res.Complete, res.MachineSteps)
	})
	t.Run("crash-budget-spill-resume", func(t *testing.T) {
		dir := t.TempDir()
		want := mustExhaustive(t, n4CertConfig(dir))
		if !want.Truncated {
			t.Fatalf("bounded slice unexpectedly completed; raise the cap and the claims: %+v", want)
		}
		if len(want.Violations) > 0 || len(want.Deadlocks) > 0 {
			t.Fatalf("bounded n=4 slice found failures: violations=%v deadlocks=%v",
				want.Violations, want.Deadlocks)
		}
		if want.StatesVisited < 100_000 {
			t.Fatalf("slice visited only %d states; not a meaningful certification", want.StatesVisited)
		}
		fi, err := os.Stat(filepath.Join(dir, "wave0000.run"))
		if err != nil {
			t.Fatalf("first wave did not spill: %v", err)
		}
		t.Logf("bounded n=4 c=1 slice: %d states, %d schedules, spill run %d bytes",
			want.StatesVisited, want.Complete, fi.Size())

		killDir := t.TempDir()
		killed := mustExhaustive(t, func() check.Config {
			cfg := n4CertConfig(killDir)
			cfg.MaxWaves = 1
			return cfg
		}())
		if !killed.Truncated || killed.Waves != 1 {
			t.Fatalf("MaxWaves-stopped run should report 1 truncated wave: %+v", killed)
		}
		resumed := mustExhaustive(t, func() check.Config {
			cfg := n4CertConfig(killDir)
			cfg.Resume = true
			return cfg
		}())
		if !reflect.DeepEqual(want, resumed) {
			t.Fatalf("resumed n=4 Result differs from uninterrupted run:\n%+v\nvs\n%+v", want, resumed)
		}
	})
}
