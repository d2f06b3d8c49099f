package harness

import (
	"fmt"

	"rme/internal/algorithms/watree"
	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// adaptivityExperiment is E12: Katzan–Morrison's algorithm additionally
// adapts to point contention — O(min(k, log n/log log n)) RMRs — which is
// what makes the word-size tradeoff attractive in practice. The tree's
// adaptive fast path (WithFastPath) reproduces the k = 1 end of that claim.
func adaptivityExperiment() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "Contention adaptivity — the Katzan–Morrison fast path (paper §1.2)",
		Claim: "Katzan–Morrison's algorithm has RMR complexity O(min(k, log n/log log n)) for point contention k. The adaptive fast path pays O(1) when uncontended, independent of tree depth; under contention it degrades gracefully to the Θ(log_w n) climb.",
		Run:   runE12,
	}
}

// runE12 measures passage cost at contention k = 1 (solo) and k = n
// (saturated), with and without the fast path, across tree depths.
func runE12(opts Options) ([]Table, error) {
	n := 64
	if opts.Full {
		n = 256
	}
	t := Table{
		Title:  fmt.Sprintf("E12: solo vs saturated passage cost (n=%d, CC)", n),
		Header: []string{"algorithm", "w", "depth", "solo RMRs (k=1)", "saturated max RMRs (k=n)"},
		Note: "solo = a single process acquires while everyone else is still in the " +
			"remainder section; saturated = all n contend. The fast path pins the solo " +
			"column to a depth-independent constant — the k=1 end of the adaptive bound " +
			"O(min(k, log_w n)) — while the plain tree pays the climb even alone.",
	}
	cases := []struct {
		alg mutex.Algorithm
		w   int
	}{
		{watree.New(), 8},
		{watree.New(watree.WithFastPath()), 8},
		{watree.New(watree.WithFanout(2)), 16},
		{watree.New(watree.WithFanout(2), watree.WithFastPath()), 16},
	}
	// Two specs per case: a solo passage (custom drive stepping only p0)
	// and a saturated round-robin run.
	var specs []engine.RunSpec
	for _, tc := range cases {
		specs = append(specs, engine.RunSpec{
			Session: mutex.Config{
				Procs: n, Width: word.Width(tc.w), Model: sim.CC, Algorithm: tc.alg, NoTrace: true,
			},
			Drive:   soloDrive,
			Collect: soloCollect,
		}, engine.RunSpec{
			Session: mutex.Config{
				Procs: n, Width: word.Width(tc.w), Model: sim.CC, Algorithm: tc.alg, Passes: 2, NoTrace: true,
			},
		})
	}
	results := engine.Run(specs, opts.engineOpts())
	for i, tc := range cases {
		depthAlg, ok := tc.alg.(watree.Lock)
		if !ok {
			return nil, fmt.Errorf("E12: unexpected algorithm type")
		}
		fan := depthAlg.Fanout(word.Width(tc.w), n)
		depth := word.CeilLog(fan, n)

		solo, sat := results[2*i], results[2*i+1]
		if solo.Err != nil {
			return nil, fmt.Errorf("E12 %s solo: %w", tc.alg.Name(), solo.Err)
		}
		if sat.Err != nil {
			return nil, fmt.Errorf("E12 %s saturated: %w", tc.alg.Name(), sat.Err)
		}
		t.AddRow(tc.alg.Name(), tc.w, depth, solo.Payload.(int), sat.MaxRMRCC)
	}
	return []Table{t}, nil
}

// soloDrive runs process 0 through one super-passage while the rest never
// leave the remainder section.
func soloDrive(s *mutex.Session) error {
	m := s.Machine()
	for !m.ProcDone(0) {
		if !m.Poised(0) {
			return fmt.Errorf("solo process blocked")
		}
		if _, err := s.StepProc(0); err != nil {
			return err
		}
	}
	return nil
}

// soloCollect reads process 0's passage cost.
func soloCollect(s *mutex.Session) (interface{}, error) {
	for _, st := range s.Stats() {
		if st.Proc == 0 {
			return st.RMRsCC, nil
		}
	}
	return nil, fmt.Errorf("no passage stats")
}
