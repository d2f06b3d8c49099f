package harness

import (
	"fmt"

	"rme/internal/algorithms/clh"
	"rme/internal/algorithms/mcs"
	"rme/internal/algorithms/qword"
	"rme/internal/algorithms/tas"
	"rme/internal/algorithms/ticket"
	"rme/internal/algorithms/tournament"
	"rme/internal/algorithms/watree"
	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// fairnessExperiment is E11: first-come-first-served behaviour, an extended
// RME property the paper's §1.2 explicitly sets aside ("ignoring any
// extended properties"); measuring it contextualizes which algorithm
// families pay for it.
func fairnessExperiment() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "FCFS fairness (paper §1.2 extended-property discussion)",
		Claim: "The paper studies the basic RME problem and sets aside extended properties such as first-come-first-served. Measured: the queue and ticket locks grant the CS in near-arrival order, while the trees and spin locks reorder freely — fairness is orthogonal to the word-size tradeoff.",
		Run:   runE11,
	}
}

// runE11 measures the normalized Kendall-tau distance between arrival order
// (each process's first shared-memory step) and CS grant order, averaged
// over randomized schedules.
func runE11(opts Options) ([]Table, error) {
	seeds := 40
	n := 10
	if opts.Full {
		seeds = 200
		n = 20
	}
	t := Table{
		Title:  fmt.Sprintf("E11: CS grant order vs arrival order (n=%d, CC, %d random schedules)", n, seeds),
		Header: []string{"algorithm", "avg inversion fraction", "max inversion fraction", "character"},
		Note: "inversion fraction = Kendall-tau distance between the order of first " +
			"steps and the order of CS grants, normalized to [0,1]; 0 = perfect FIFO. " +
			"The doorway happens a few steps after the first step, so even FIFO locks " +
			"score slightly above 0 under heavy interleaving.",
	}
	algs := []struct {
		alg       mutex.Algorithm
		width     int
		character string
	}{
		{ticket.New(), 16, "FIFO by ticket"},
		{mcs.New(), 16, "FIFO by queue"},
		{clh.New(), 16, "FIFO by queue"},
		{qword.New(), 64, "FIFO by queue word (custom op)"},
		{tournament.New(), 16, "no FCFS (tree)"},
		{watree.New(), 16, "no FCFS (tree)"},
		{tas.New(), 16, "no FCFS (race)"},
	}
	// One spec per (algorithm, seed); per-algorithm configs repeat across
	// seeds, so each engine worker replays them on a recycled machine. Each
	// drive computes its run's inversion fraction into fracs.
	fracs := make([]float64, len(algs)*seeds)
	var specs []engine.RunSpec
	for _, a := range algs {
		// The queue word holds at most 64/ceil(log2(n+1)) entries; cap its
		// process count so -full sweeps stay within a 64-bit word.
		an := n
		if a.alg.Name() == "qword" && an > 12 {
			an = 12
		}
		for seed := 0; seed < seeds; seed++ {
			i := len(specs)
			specs = append(specs, engine.RunSpec{
				Session: mutex.Config{
					Procs: an, Width: word.Width(a.width), Model: sim.CC, Algorithm: a.alg,
					Passes: 1, NoTrace: true,
				},
				Drive: func(s *mutex.Session) error {
					if err := s.RunRandom(int64(seed)+opts.Seed, mutex.RandomRunOptions{}); err != nil {
						return err
					}
					var err error
					fracs[i], err = inversionFraction(s, an)
					return err
				},
			})
		}
	}
	results := engine.Run(specs, opts.engineOpts())
	for ai, a := range algs {
		sum, maxFrac := 0.0, 0.0
		for seed := 0; seed < seeds; seed++ {
			i := ai*seeds + seed
			if err := results[i].Err; err != nil {
				return nil, fmt.Errorf("E11 %s seed %d: %w", a.alg.Name(), seed, err)
			}
			frac := fracs[i]
			sum += frac
			if frac > maxFrac {
				maxFrac = frac
			}
		}
		t.AddRow(a.alg.Name(), sum/float64(seeds), maxFrac, a.character)
	}
	return []Table{t}, nil
}

// inversionFraction computes the normalized Kendall-tau distance between
// arrival order and CS grant order on a completed session.
func inversionFraction(s *mutex.Session, n int) (float64, error) {
	// Arrival order: first action per process in the schedule.
	arrivalRank := make(map[int]int, n)
	for _, act := range s.Machine().Schedule() {
		if _, ok := arrivalRank[act.Proc]; !ok {
			arrivalRank[act.Proc] = len(arrivalRank)
		}
	}
	grants := s.CSOrder()
	if len(grants) != n {
		return 0, fmt.Errorf("expected %d grants, got %d", n, len(grants))
	}
	inversions, pairs := 0, 0
	for i := 0; i < len(grants); i++ {
		for j := i + 1; j < len(grants); j++ {
			pairs++
			if arrivalRank[grants[i]] > arrivalRank[grants[j]] {
				inversions++
			}
		}
	}
	return float64(inversions) / float64(pairs), nil
}
