package check

import (
	"reflect"
	"testing"

	"rme/internal/algorithms/grlock"
	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tas"
	"rme/internal/algorithms/ticket"
	"rme/internal/algorithms/watree"
	"rme/internal/algorithms/yatree"
	"rme/internal/faults"
	"rme/internal/mutex"
	"rme/internal/sim"
)

// Fuzz-configuration flag bits.
const (
	fuzzMemo = 1 << iota
	fuzzPOR
	fuzzSymmetry
	fuzzShared
)

// FuzzExhaustiveBudget property-tests the budget contract over small random
// configurations, tight caps through generous ones:
//   - the Result is identical at Parallel 1 and 3 (budgets, reruns and seals
//     are functions of merged sub-results, never of scheduling);
//   - a shared-set search that seals at least two waves, killed after a
//     fuzzed wave with its sealed waves spilled (a MemBudget of 1–2 bytes
//     serves every one from disk) and then resumed at Parallel 2, returns
//     the uninterrupted Result;
//   - a Result that reports a violation or deadlock, truncated or not, still
//     reports one when both caps double (more budget never hides a failure);
//   - an untruncated Result is unchanged when both caps double;
//   - at n=2 with Memo and POR off, an untruncated search agrees with
//     ExhaustiveReference on every field comparePlain checks.
//
// The seed corpus runs with the ordinary tests; it includes the two
// redistribution anchors of the perf ledger (a private search that runs one
// round and a shared one that runs all maxBudgetRounds).
func FuzzExhaustiveBudget(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(1), uint8(fuzzMemo), uint8(0), uint16(97), uint16(3950))           // private anchor
	f.Add(uint8(2), uint8(0), uint8(1), uint8(fuzzShared), uint8(1), uint16(85), uint16(3543))         // shared anchor, wave 2
	f.Add(uint8(2), uint8(0), uint8(1), uint8(fuzzMemo), uint8(0), uint16(173), uint16(7062))          // exact cover, skewed tree
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint16(300), uint16(0))                    // tas plain: crashes requested, none branched
	f.Add(uint8(1), uint8(1), uint8(0), uint8(fuzzMemo|fuzzPOR), uint8(0), uint16(0), uint16(0))       // ticket n=3, tight
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint16(1900), uint16(0))                   // rspin plain vs reference
	f.Add(uint8(3), uint8(0), uint8(1), uint8(fuzzMemo|fuzzPOR), uint8(0), uint16(40), uint16(900))    // yatree memo+por
	f.Add(uint8(4), uint8(0), uint8(1), uint8(fuzzShared|fuzzPOR), uint8(3), uint16(60), uint16(1500)) // watree shared wave 4
	f.Add(uint8(5), uint8(1), uint8(1), uint8(fuzzShared|fuzzSymmetry), uint8(2), uint16(30), uint16(600))
	f.Add(uint8(6), uint8(0), uint8(1), uint8(fuzzMemo), uint8(0), uint16(20), uint16(400)) // broken fixture
	f.Add(uint8(2), uint8(1), uint8(0), uint8(fuzzShared|fuzzPOR|fuzzSymmetry), uint8(0), uint16(500), uint16(9000))
	f.Add(uint8(6), uint8(0), uint8(1), uint8(fuzzMemo), uint8(0), uint16(97), uint16(950))            // broken: truncated, 5 violations
	f.Add(uint8(6), uint8(0), uint8(1), uint8(fuzzShared), uint8(0), uint16(27), uint16(150))          // broken shared: truncated, 1 violation
	f.Add(uint8(2), uint8(0), uint8(1), uint8(fuzzShared), uint8(0), uint16(101), uint16(1001))        // rspin 4 waves: kill after 3, disk-served
	f.Add(uint8(4), uint8(0), uint8(1), uint8(fuzzShared|fuzzPOR), uint8(0), uint16(61), uint16(1501)) // watree 4 waves: kill after 2, disk-served
	f.Fuzz(func(t *testing.T, algSel, nSel, crashSel, flags, waveSel uint8, schedSel, stateSel uint16) {
		algs := []func() mutex.Algorithm{
			func() mutex.Algorithm { return tas.New() },
			func() mutex.Algorithm { return ticket.New() },
			func() mutex.Algorithm { return rspin.New() },
			func() mutex.Algorithm { return yatree.New() },
			func() mutex.Algorithm { return watree.New() },
			func() mutex.Algorithm { return grlock.New() },
			func() mutex.Algorithm { return faults.NewBroken() },
		}
		n := 2 + int(nSel%2)
		crashes := int(crashSel % 2)
		// Generous caps are bounded so every execution stays well under a
		// second; n=3 with crashes gets the tightest ceiling.
		schedCeil, stateCeil := 2000, 20_000
		if n == 3 {
			schedCeil, stateCeil = 1000, 10_000
			if crashes > 0 {
				schedCeil, stateCeil = 300, 3000
			}
		}
		cfg := Config{
			Session: mutex.Config{
				Procs: n, Width: 8, Model: sim.CC, Algorithm: algs[int(algSel)%len(algs)](),
			},
			CrashesPerProc: crashes,
			MaxSchedules:   3 + int(schedSel)%schedCeil,
			MaxStates:      50 + int(stateSel)%stateCeil,
			Memo:           flags&fuzzMemo != 0,
			POR:            flags&fuzzPOR != 0,
			Symmetry:       flags&fuzzSymmetry != 0,
			SharedVisited:  flags&fuzzShared != 0,
			WaveSize:       1 + int(waveSel%4),
		}
		run := func(cfg Config, parallel int) *Result {
			t.Helper()
			cfg.Parallel = parallel
			res, err := Exhaustive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		one := run(cfg, 1)
		if three := run(cfg, 3); !reflect.DeepEqual(one, three) {
			t.Fatalf("Result differs between Parallel 1 and 3:\n%+v\nvs\n%+v", one, three)
		}
		if cfg.SharedVisited && one.Waves >= 2 {
			killed := cfg
			killed.SpillDir = t.TempDir()
			killed.MaxWaves = 1 + int(schedSel)%(one.Waves-1)
			killed.MemBudget = int64(stateSel % 3)
			run(killed, 1)
			resumed := killed
			resumed.Resume = true
			resumed.MaxWaves = 0
			if got := run(resumed, 2); !reflect.DeepEqual(one, got) {
				t.Fatalf("Result differs after a kill at wave %d (MemBudget %d) and a resume:\n%+v\nvs\n%+v",
					killed.MaxWaves, killed.MemBudget, one, got)
			}
		}
		if one.Truncated && one.Ok() {
			return
		}
		doubled := cfg
		doubled.MaxSchedules *= 2
		doubled.MaxStates *= 2
		got := run(doubled, 1)
		if !one.Ok() && got.Ok() {
			t.Fatalf("doubling both caps hid the failure found with less budget:\n%+v\nvs\n%+v", one, got)
		}
		if one.Truncated {
			return
		}
		if !reflect.DeepEqual(one, got) {
			t.Fatalf("untruncated Result changed when both caps doubled:\n%+v\nvs\n%+v", one, got)
		}
		if n == 2 && !cfg.Memo && !cfg.POR && !cfg.SharedVisited {
			ref, err := ExhaustiveReference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Truncated {
				comparePlain(t, diffCase{}, one, ref)
			}
		}
	})
}
