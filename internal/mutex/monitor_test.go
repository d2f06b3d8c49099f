package mutex_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

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
	"rme/internal/faults"
	"rme/internal/mutex"
	"rme/internal/sim"
)

// refMonitor is the safety monitor as a full scan of all n phase tags after
// every action: the reference the session's incremental monitor must match
// message for message.
type refMonitor struct {
	m        *sim.Machine
	lastTags []int
	csOwner  int
	csOrder  []int
	errs     []string
}

func newRefMonitor(m *sim.Machine) *refMonitor {
	r := &refMonitor{m: m, lastTags: make([]int, m.Procs()), csOwner: -1}
	for p := range r.lastTags {
		r.lastTags[p] = m.Tag(p)
	}
	return r
}

func (r *refMonitor) observe() {
	for p := range r.lastTags {
		cur, prev := r.m.Tag(p), r.lastTags[p]
		if cur == prev {
			continue
		}
		switch {
		case cur == mutex.TagCS:
			if r.csOwner != -1 && r.csOwner != p {
				r.errs = append(r.errs, fmt.Sprintf("mutual exclusion violated: p%d entered the CS while p%d holds it (step %d)",
					p, r.csOwner, r.m.Steps()))
			}
			if r.csOwner != p {
				r.csOrder = append(r.csOrder, p)
			}
			r.csOwner = p
		case prev == mutex.TagCS && cur != mutex.TagRecover:
			if r.csOwner == p {
				r.csOwner = -1
			}
		}
		r.lastTags[p] = cur
	}
	in := -1
	for p := range r.lastTags {
		if r.m.Tag(p) == mutex.TagCS {
			if in != -1 {
				r.errs = append(r.errs, fmt.Sprintf("mutual exclusion violated: p%d and p%d tagged CS simultaneously (step %d)",
					in, p, r.m.Steps()))
			}
			in = p
		}
	}
}

// TestMonitorMatchesFullScan drives RunRandom schedules with crashes for
// every algorithm, the crash-unsafe BrokenTAS fixture and the exclusion-free
// violatingAlgorithm, then replays each schedule on a second session's bare
// machine under the full-scan reference monitor. Violations and CSOrder must
// be identical. The two fixtures must produce their kinds of violation
// message, so the comparison is not vacuous: BrokenTAS lets a contender in
// while a crashed holder still owns the CS, and violatingAlgorithm puts two
// processes in the CS at once.
func TestMonitorMatchesFullScan(t *testing.T) {
	algs := []mutex.Algorithm{
		tas.New(), ticket.New(), mcs.New(), clh.New(), tournament.New(),
		yatree.New(), grlock.New(), rspin.New(), watree.New(), qword.New(),
		faults.NewBroken(), violatingAlgorithm{},
	}
	mustSee := map[string][]string{
		faults.NewBroken().Name():   {"entered the CS while"},
		violatingAlgorithm{}.Name(): {"entered the CS while", "tagged CS simultaneously"},
	}
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for _, alg := range algs {
		t.Run(alg.Name(), func(t *testing.T) {
			var msgs []string
			for _, procs := range []int{2, 5} {
				for seed := int64(0); seed < seeds; seed++ {
					cfg := mutex.Config{Procs: procs, Width: 16, Model: sim.CC, Algorithm: alg, Passes: 3}
					got, order, sched := runRandomMonitored(t, cfg, seed)
					want, wantOrder := replayFullScan(t, cfg, sched)
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d seed=%d: Violations()\n got %q\nwant %q", procs, seed, got, want)
					}
					if !slices.Equal(order, wantOrder) {
						t.Fatalf("n=%d seed=%d: CSOrder() = %v, full scan %v", procs, seed, order, wantOrder)
					}
					msgs = append(msgs, got...)
				}
			}
			joined := strings.Join(msgs, "\n")
			for _, kind := range mustSee[alg.Name()] {
				if !strings.Contains(joined, kind) {
					t.Errorf("no %q violation; the comparison is vacuous", kind)
				}
			}
		})
	}
}

// runRandomMonitored runs cfg under RunRandom with crashes and returns the
// session monitor's verdicts and the executed schedule. Runs that end in a
// violation or stall are kept: their verdicts are what is compared.
func runRandomMonitored(t *testing.T, cfg mutex.Config, seed int64) ([]string, []int, sim.Schedule) {
	t.Helper()
	s, err := mutex.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_ = s.RunRandom(seed, mutex.RandomRunOptions{CrashProb: 0.15, MaxCrashesPerProc: 3})
	return s.Violations(), s.CSOrder(), s.Machine().Schedule()
}

// replayFullScan replays sched on a fresh session's machine, bypassing the
// session monitor, and returns the reference monitor's verdicts.
func replayFullScan(t *testing.T, cfg mutex.Config, sched sim.Schedule) ([]string, []int) {
	t.Helper()
	s, err := mutex.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Machine()
	ref := newRefMonitor(m)
	for i, act := range sched {
		if act.Crash {
			_, err = m.Crash(act.Proc)
		} else {
			_, err = m.Step(act.Proc)
		}
		if err != nil {
			t.Fatalf("replay action %d (%s): %v", i, act, err)
		}
		ref.observe()
	}
	return ref.errs, ref.csOrder
}

// TestStepProcAllocFree pins the step gate and the monitor at zero heap
// allocations per step in the BenchmarkSimStep shape: one tas process
// stepping through passage after passage.
func TestStepProcAllocFree(t *testing.T) {
	s, err := mutex.NewSession(mutex.Config{
		Procs: 1, Width: 64, Model: sim.CC, Algorithm: tas.New(),
		Passes: 1 << 30, NoTrace: true, MaxSteps: 1 << 62,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var stepErr error
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.StepProc(0); err != nil && stepErr == nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Errorf("StepProc allocates %v times per step, want 0", allocs)
	}
}
