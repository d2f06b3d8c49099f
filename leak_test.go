package rme_test

import (
	"runtime"
	"testing"
	"time"

	"rme"
	"rme/internal/service"
	"rme/internal/telemetry"
)

// TestNoGoroutineLeaks checks that every simulated process body is gone once
// the engine's session pool is done with it:
//   - a truncated checker search, whose explorers stop with live bodies in
//     their live and checkpoint sessions and in the sessions released to
//     their workers, after restores that rewound their live sessions and
//     relaunched bodies mid-run;
//   - a service run, whose pool workers each hold a session per batch size;
//   - Worker.Close on a worker holding several sessions released mid-run;
//   - Close on a session Reset mid-run, whose bodies stay parked across the
//     Reset;
//   - an adversary construction that adopts erasures by patching its live
//     session, each relaunching one body mid-run, and then closes.
func TestNoGoroutineLeaks(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, start int)
	}{
		{"TruncatedExhaustive", func(t *testing.T, _ int) {
			// The budget lets the search restore nodes deeper than the
			// 32-step checkpoint stride, so checkpoint sessions are built
			// before the cut.
			reg := telemetry.New()
			res, err := rme.Exhaustive(rme.CheckConfig{
				Session:        rme.Config{Procs: 3, Width: 8, Model: rme.CC, Algorithm: rme.MustAlgorithm("rspin")},
				CrashesPerProc: 1,
				Memo:           true,
				POR:            true,
				MaxSchedules:   4000,
				MaxStates:      70000,
				Parallel:       2,
				Telemetry:      reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Truncated {
				t.Fatal("search finished; the test needs a budget cut")
			}
			if reg.Counter("check_rewinds").Load() == 0 || reg.Counter("check_rewind_relaunches").Load() == 0 {
				t.Fatal("no restore rewound a live session and relaunched bodies; the test needs some")
			}
		}},
		{"ServiceRun", func(t *testing.T, _ int) {
			_, err := service.Run(service.Config{
				Locks:     16,
				Clients:   20_000,
				Passages:  1500,
				Dist:      service.Dist{Kind: service.Zipf, Theta: 1.1},
				Seed:      1,
				Algorithm: rme.MustAlgorithm("watree"),
				Model:     rme.CC,
				Parallel:  2,
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"WorkerClose", func(t *testing.T, start int) {
			w := rme.NewWorker()
			for _, n := range []int{2, 3, 4} {
				s, err := w.Session(rme.Config{Procs: n, Width: 8, Model: rme.CC, Algorithm: rme.MustAlgorithm("watree")})
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < n; p++ {
					if _, err := s.StepProc(p); err != nil {
						t.Fatal(err)
					}
				}
				w.Release(s)
			}
			if runtime.NumGoroutine() < start+2+3+4 {
				t.Fatalf("%d goroutines with three sessions released mid-run; want at least %d",
					runtime.NumGoroutine(), start+2+3+4)
			}
			w.Close()
		}},
		{"ResetClose", func(t *testing.T, start int) {
			s, err := rme.NewSession(rme.Config{Procs: 3, Width: 8, Model: rme.CC, Algorithm: rme.MustAlgorithm("watree")})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.StepProc(0); err != nil {
				t.Fatal(err)
			}
			if err := s.Reset(); err != nil {
				t.Fatal(err)
			}
			if runtime.NumGoroutine() < start+3 {
				t.Fatalf("%d goroutines after Reset; want at least %d", runtime.NumGoroutine(), start+3)
			}
			s.Close()
		}},
		{"AdversaryPatchedErasures", func(t *testing.T, _ int) {
			reg := telemetry.New()
			adv, err := rme.NewAdversary(rme.AdversaryConfig{
				Session:   rme.Config{Procs: 64, Width: 4, Model: rme.CC, Algorithm: rme.MustAlgorithm("watree")},
				Telemetry: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer adv.Close()
			if _, err := adv.Run(); err != nil {
				t.Fatal(err)
			}
			if reg.Gauge("adversary_adoptions_fast").Load() == 0 {
				t.Fatal("no erasure was adopted by patching; the test needs some")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			start := runtime.NumGoroutine()
			c.run(t, start)
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > start {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, want %d: process bodies leaked", runtime.NumGoroutine(), start)
				}
				runtime.Gosched()
			}
		})
	}
}
