package check

import (
	"fmt"
	"math/bits"
	"os"

	"rme/internal/sim"
	"rme/internal/telemetry"
)

// sharedStore holds the sealed visited sets, one generation per wave. A
// generation lives as an in-memory map, a sorted spill-run file, or both;
// MemBudget evicts the oldest resident maps once their run files exist.
// During a wave the sealed generations are strictly read-only, so concurrent
// branch lookups need no locking.
type sharedStore struct {
	dir       string
	ownsDir   bool
	memBudget int64
	waves     []storeWave

	spillRuns, spillEntries, spillBytes *telemetry.Gauge
}

type storeWave struct {
	mem map[sim.Fingerprint]uint64
	run *spillRun
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
	n := v.maxGen
	if n > len(v.store.waves) {
		n = len(v.store.waves)
	}
	for g := 0; g < n; g++ {
		stored, ok := v.store.waves[g].lookup(fp)
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

func (w *storeWave) lookup(fp sim.Fingerprint) (uint64, bool) {
	if w.mem != nil {
		v, ok := w.mem[fp]
		return v, ok
	}
	if w.run != nil {
		return w.run.lookup(fp)
	}
	return 0, false
}

func newSharedStore(cfg Config) (*sharedStore, error) {
	st := &sharedStore{
		dir:          cfg.SpillDir,
		memBudget:    cfg.MemBudget,
		spillRuns:    cfg.Telemetry.Gauge("check_spill_runs"),
		spillEntries: cfg.Telemetry.Gauge("check_spill_entries"),
		spillBytes:   cfg.Telemetry.Gauge("check_spill_bytes"),
	}
	if st.dir == "" && st.memBudget > 0 {
		// A memory budget needs somewhere to spill; without a SpillDir the
		// store uses a private scratch directory (no checkpoint, no Resume).
		d, err := os.MkdirTemp("", "rmespill-")
		if err != nil {
			return nil, fmt.Errorf("check: creating scratch spill dir: %w", err)
		}
		st.dir = d
		st.ownsDir = true
	} else if st.dir != "" {
		if err := os.MkdirAll(st.dir, 0o755); err != nil {
			return nil, fmt.Errorf("check: creating spill dir: %w", err)
		}
	}
	return st, nil
}

func (st *sharedStore) close() {
	for i := range st.waves {
		if st.waves[i].run != nil {
			st.waves[i].run.close()
		}
	}
	if st.ownsDir {
		os.RemoveAll(st.dir)
	}
}

// seal merges the given private deltas into generation `wave` and, when a
// spill directory exists, writes the generation's sorted run file. When two
// deltas claim the same state the stronger single claim wins (betterMask);
// min over a total order is merge-order-free, so the sealed generation is
// identical regardless of how the wave's branches were scheduled.
func (st *sharedStore) seal(wave int, deltas []map[sim.Fingerprint]uint64) error {
	for len(st.waves) <= wave {
		st.waves = append(st.waves, storeWave{})
	}
	merged := make(map[sim.Fingerprint]uint64)
	for _, d := range deltas {
		for fp, mask := range d {
			if prev, ok := merged[fp]; ok {
				mask = betterMask(prev, mask)
			}
			merged[fp] = mask
		}
	}
	st.waves[wave].mem = merged
	if st.dir != "" {
		run, err := writeSpillRun(spillRunPath(st.dir, wave), merged)
		if err != nil {
			return err
		}
		if old := st.waves[wave].run; old != nil {
			old.close()
		}
		st.waves[wave].run = run
		st.updateSpillGauges()
	}
	return st.enforceMemBudget()
}

// truncate discards every sealed generation from `wave` on — a budget
// redistribution round is about to replay those waves, and their seals
// reflect the smaller budgets. Run files are removed so a checkpoint taken
// mid-replay never references stale content.
func (st *sharedStore) truncate(wave int) {
	if wave >= len(st.waves) {
		return
	}
	for i := wave; i < len(st.waves); i++ {
		if st.waves[i].run != nil {
			st.waves[i].run.close()
			os.Remove(spillRunPath(st.dir, i))
		}
	}
	st.waves = st.waves[:wave]
	st.updateSpillGauges()
}

// loadRuns attaches the checkpointed run files for the manifest's sealed
// waves. Resumed generations are served from disk (their maps are not
// rebuilt); lookups return the same masks either way, so the Result is
// unaffected.
func (st *sharedStore) loadRuns(man *spillManifest) error {
	for len(st.waves) < man.WavesDone {
		st.waves = append(st.waves, storeWave{})
	}
	for _, rm := range man.Runs {
		if rm.Wave < 0 || rm.Wave >= man.WavesDone {
			return fmt.Errorf("check: manifest run for wave %d out of range", rm.Wave)
		}
		run, err := openSpillRun(spillRunPath(st.dir, rm.Wave))
		if err != nil {
			return err
		}
		if run.count != rm.Entries {
			run.close()
			return fmt.Errorf("check: spill run for wave %d has %d entries, manifest says %d",
				rm.Wave, run.count, rm.Entries)
		}
		st.waves[rm.Wave].run = run
	}
	for w := 0; w < man.WavesDone; w++ {
		if st.waves[w].run == nil {
			return fmt.Errorf("check: manifest is missing the run for sealed wave %d", w)
		}
	}
	st.updateSpillGauges()
	return nil
}

// enforceMemBudget drops the oldest resident maps whose run files exist
// until the estimated resident size fits the budget.
func (st *sharedStore) enforceMemBudget() error {
	if st.memBudget <= 0 {
		return nil
	}
	const bytesPerEntry = 48 // fingerprint + mask + map overhead, estimated
	resident := func() int64 {
		var total int64
		for i := range st.waves {
			if st.waves[i].mem != nil {
				total += int64(len(st.waves[i].mem)) * bytesPerEntry
			}
		}
		return total
	}
	for i := range st.waves {
		if resident() <= st.memBudget {
			break
		}
		if st.waves[i].mem != nil && st.waves[i].run != nil {
			st.waves[i].mem = nil
		}
	}
	return nil
}

func (st *sharedStore) updateSpillGauges() {
	var runs, entries, bytes int64
	for i := range st.waves {
		if r := st.waves[i].run; r != nil {
			runs++
			entries += r.count
			bytes += r.sizeBytes()
		}
	}
	st.spillRuns.Set(runs)
	st.spillEntries.Set(entries)
	st.spillBytes.Set(bytes)
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
