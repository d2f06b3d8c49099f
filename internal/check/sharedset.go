package check

import (
	"fmt"
	"math/bits"
	"os"

	"rme/internal/sim"
	"rme/internal/telemetry"
)

// sharedStore holds the sealed visited sets, one in-memory generation per
// wave. With a SpillDir every generation is also written as a sorted run
// file — a checkpoint only: Resume reads the runs back into generations and
// lookups never touch disk. During a wave the sealed generations are
// strictly read-only, so concurrent branch lookups need no locking.
type sharedStore struct {
	dir   string
	waves []map[sim.Fingerprint]uint64

	spillRuns, spillEntries, spillBytes *telemetry.Gauge
}

// sharedView is an explorer's read window onto the store: generations
// [0, maxGen) — the waves sealed strictly before the explorer's own.
type sharedView struct {
	store  *sharedStore
	maxGen int
}

// filter applies the sealed claims for fp to the current canonical sleep
// mask. Each generation's stored mask is an independently witnessed
// "explored under W" claim, so the generations are consulted one at a time:
// a claim covering the current mask prunes; otherwise it narrows the mask
// for the exploration (and the claims) that follow. Claims are never
// intersected with each other — two witnesses for W1 and W2 do not witness
// W1∩W2.
func (v *sharedView) filter(fp sim.Fingerprint, mask uint64) (prune bool, out uint64) {
	for _, gen := range v.store.waves[:min(v.maxGen, len(v.store.waves))] {
		stored, ok := gen[fp]
		if !ok {
			continue
		}
		if stored&^mask == 0 {
			return true, mask
		}
		mask &= stored
	}
	return false, mask
}

func newSharedStore(cfg Config) (*sharedStore, error) {
	st := &sharedStore{
		dir:          cfg.SpillDir,
		spillRuns:    cfg.Telemetry.Gauge("check_spill_runs"),
		spillEntries: cfg.Telemetry.Gauge("check_spill_entries"),
		spillBytes:   cfg.Telemetry.Gauge("check_spill_bytes"),
	}
	if st.dir != "" {
		if err := os.MkdirAll(st.dir, 0o755); err != nil {
			return nil, fmt.Errorf("check: creating spill dir: %w", err)
		}
	}
	return st, nil
}

// seal merges the given private deltas into generation `wave` and, when a
// spill directory exists, checkpoints the generation as a sorted run file.
// The deltas belong to finished explorers, so the first one becomes the
// generation and absorbs the rest in place. When two deltas claim the same
// state the stronger single claim wins (betterMask); min over a total order
// is merge-order-free, so the sealed generation is identical regardless of
// how the wave's branches were scheduled.
func (st *sharedStore) seal(wave int, deltas []map[sim.Fingerprint]uint64) error {
	for len(st.waves) <= wave {
		st.waves = append(st.waves, nil)
	}
	merged := deltas[0]
	for _, d := range deltas[1:] {
		for fp, mask := range d {
			if prev, ok := merged[fp]; ok {
				mask = betterMask(prev, mask)
			}
			merged[fp] = mask
		}
	}
	st.waves[wave] = merged
	if st.dir == "" {
		return nil
	}
	if err := writeSpillRun(spillRunPath(st.dir, wave), merged); err != nil {
		return err
	}
	st.updateSpillGauges()
	return nil
}

// truncate discards every sealed generation from `wave` on — a budget
// redistribution round is about to replay those waves, and their seals
// reflect the smaller budgets. Run files are removed so a checkpoint taken
// mid-replay never references stale content.
func (st *sharedStore) truncate(wave int) {
	if wave >= len(st.waves) {
		return
	}
	if st.dir != "" {
		for i := wave; i < len(st.waves); i++ {
			os.Remove(spillRunPath(st.dir, i))
		}
	}
	st.waves = st.waves[:wave]
	st.updateSpillGauges()
}

// loadRuns reads the checkpointed run files for the manifest's sealed waves
// back into generations, so a resumed search consults exactly the sets the
// interrupted one sealed.
func (st *sharedStore) loadRuns(man *spillManifest) error {
	st.waves = make([]map[sim.Fingerprint]uint64, man.WavesDone)
	for _, rm := range man.Runs {
		if rm.Wave < 0 || rm.Wave >= man.WavesDone {
			return fmt.Errorf("check: manifest run for wave %d out of range", rm.Wave)
		}
		gen, err := readSpillRun(spillRunPath(st.dir, rm.Wave))
		if err != nil {
			return err
		}
		if int64(len(gen)) != rm.Entries {
			return fmt.Errorf("check: spill run for wave %d has %d entries, manifest says %d",
				rm.Wave, len(gen), rm.Entries)
		}
		st.waves[rm.Wave] = gen
	}
	for w, gen := range st.waves {
		if gen == nil {
			return fmt.Errorf("check: manifest is missing the run for sealed wave %d", w)
		}
	}
	st.updateSpillGauges()
	return nil
}

// updateSpillGauges reports the run files on disk: one per sealed
// generation when a spill directory exists, none otherwise.
func (st *sharedStore) updateSpillGauges() {
	var runs, entries int64
	if st.dir != "" {
		runs = int64(len(st.waves))
		for _, gen := range st.waves {
			entries += int64(len(gen))
		}
	}
	st.spillRuns.Set(runs)
	st.spillEntries.Set(entries)
	st.spillBytes.Set(runs*spillHeaderSize + entries*spillRecordSize)
}

// betterMask picks the stronger of two independently witnessed sleep-mask
// claims for one state: fewer set bits prunes more (`stored ⊆ current` is
// easier the smaller stored is), and the numeric tie-break keeps the choice
// a min over a total order.
func betterMask(a, b uint64) uint64 {
	ca, cb := bits.OnesCount64(a), bits.OnesCount64(b)
	if ca != cb {
		if ca < cb {
			return a
		}
		return b
	}
	if a < b {
		return a
	}
	return b
}
