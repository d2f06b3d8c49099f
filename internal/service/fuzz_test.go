package service

import (
	"reflect"
	"testing"

	"rme"
	"rme/internal/sim"
)

// FuzzServiceParity property-tests the byte-parity guarantee over small
// random configurations: the Report is identical at Parallel 1 and 4. Each
// engine worker recycles the sessions of every batch size it has run, in an
// order that depends on how shard batches fall to workers, so this is also
// the property test of the session pool.
//
// Inputs are locks 1–16, clients 1–20,000, uniform, zipf (theta 1.1–5.0) or
// bursty (fraction 0.01–1) arrivals, slots 1–8, passages 1–2,000, TopCells 0
// or 3, watree, rspin, mcs or tas, and CC or DSM. Every mapped input passes
// validate. The seed corpus runs with the ordinary tests; its first two
// entries are the 16-lock rmeserve configurations CI runs.
func FuzzServiceParity(f *testing.F) {
	f.Add(uint8(15), uint16(19999), uint8(1), uint8(0), uint8(7), uint16(1499), false, uint8(0), false, int64(1)) // CI: zipf:1.1 seed 1
	f.Add(uint8(15), uint16(19999), uint8(2), uint8(4), uint8(7), uint16(1499), false, uint8(0), false, int64(2)) // CI: bursty:0.05 seed 2
	f.Add(uint8(0), uint16(0), uint8(0), uint8(0), uint8(0), uint16(0), false, uint8(3), false, int64(0))         // one lock, one client
	f.Add(uint8(3), uint16(499), uint8(0), uint8(0), uint8(2), uint16(999), true, uint8(1), true, int64(5))       // rspin DSM, top cells
	f.Add(uint8(7), uint16(9999), uint8(1), uint8(9), uint8(4), uint16(1999), false, uint8(2), false, int64(3))   // mcs, zipf:2
	f.Add(uint8(11), uint16(2999), uint8(2), uint8(49), uint8(5), uint16(799), true, uint8(0), true, int64(-7))   // watree DSM, bursty:0.5
	f.Fuzz(func(t *testing.T, locksSel uint8, clientsSel uint16, distSel, paramSel, slotsSel uint8, passSel uint16, top bool, algSel uint8, dsm bool, seed int64) {
		dist := Dist{Kind: DistKind(distSel % 3)}
		switch dist.Kind {
		case Zipf:
			dist.Theta = float64(11+int(paramSel)%40) / 10
		case Bursty:
			dist.Frac = float64(1+int(paramSel)%100) / 100
		}
		cfg := Config{
			Locks:     1 + int(locksSel)%16,
			Clients:   1 + int(clientsSel)%20_000,
			Passages:  1 + int64(passSel)%2_000,
			Dist:      dist,
			Seed:      seed,
			Algorithm: rme.MustAlgorithm([]string{"watree", "rspin", "mcs", "tas"}[algSel%4]),
			Model:     sim.CC,
			Slots:     1 + int(slotsSel)%8,
			Parallel:  1,
		}
		if dsm {
			cfg.Model = sim.DSM
		}
		if top {
			cfg.TopCells = 3
		}
		one, err := Run(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		cfg.Parallel = 4
		four, err := Run(cfg)
		if err != nil {
			t.Fatalf("%+v at Parallel 4: %v", cfg, err)
		}
		if !reflect.DeepEqual(one, four) {
			t.Fatalf("%+v: report differs between Parallel 1 and 4:\n%+v\nvs\n%+v", cfg, one, four)
		}
	})
}
