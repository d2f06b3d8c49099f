package check

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"rme/internal/sim"
)

// Spill-run file layout: a fixed header followed by fixed-size records
// sorted by fingerprint. A run is a checkpoint of one sealed wave: the
// search itself reads the in-memory generation, and Resume reads the run
// back into one.
//
//	offset 0   8 bytes  magic "RMESPILL"
//	offset 8   4 bytes  version (little-endian)
//	offset 12  4 bytes  reserved (zero)
//	offset 16  8 bytes  record count
//	offset 24  count x 24-byte records: fingerprint Hi, Lo, sleep mask
//
// The version changes with the layout and with the fingerprint hash
// (sim.Fingerprint), so a run written under another hash fails to load
// instead of answering lookups for states it never saw.
const (
	spillMagic      = "RMESPILL"
	spillVersion    = 2
	spillHeaderSize = 24
	spillRecordSize = 24
)

type spillEntry struct {
	fp   sim.Fingerprint
	mask uint64
}

func spillRunPath(dir string, wave int) string {
	return filepath.Join(dir, fmt.Sprintf("wave%04d.run", wave))
}

// writeSpillRun sorts the generation and writes it atomically (temp file +
// fsync + rename).
func writeSpillRun(path string, gen map[sim.Fingerprint]uint64) error {
	entries := make([]spillEntry, 0, len(gen))
	for fp, mask := range gen {
		entries = append(entries, spillEntry{fp: fp, mask: mask})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].fp.Hi != entries[j].fp.Hi {
			return entries[i].fp.Hi < entries[j].fp.Hi
		}
		return entries[i].fp.Lo < entries[j].fp.Lo
	})

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("check: writing spill run: %w", err)
	}
	w := bufio.NewWriter(f)
	var hdr [spillHeaderSize]byte
	copy(hdr[:8], spillMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], spillVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(entries)))
	w.Write(hdr[:])
	var rec [spillRecordSize]byte
	for _, e := range entries {
		binary.LittleEndian.PutUint64(rec[0:8], e.fp.Hi)
		binary.LittleEndian.PutUint64(rec[8:16], e.fp.Lo)
		binary.LittleEndian.PutUint64(rec[16:24], e.mask)
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("check: writing spill run: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("check: syncing spill run: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("check: closing spill run: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("check: publishing spill run: %w", err)
	}
	return nil
}

// readSpillRun loads a checkpointed run back into a generation map,
// validating the header, the file size against the header count, and the
// sort order (which also rules out duplicate records).
func readSpillRun(path string) (map[sim.Fingerprint]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("check: opening spill run: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [spillHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("check: reading spill run header %s: %w", path, err)
	}
	if string(hdr[:8]) != spillMagic {
		return nil, fmt.Errorf("check: %s is not a spill run (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != spillVersion {
		return nil, fmt.Errorf("check: spill run %s has version %d, want %d", path, v, spillVersion)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// Compare in records, not bytes, so a corrupt count can neither overflow
	// the product nor size the map below.
	count := binary.LittleEndian.Uint64(hdr[16:24])
	body := fi.Size() - spillHeaderSize
	if body%spillRecordSize != 0 || uint64(body/spillRecordSize) != count {
		return nil, fmt.Errorf("check: spill run %s is %d bytes, its header counts %d records", path, fi.Size(), count)
	}

	gen := make(map[sim.Fingerprint]uint64, count)
	var prev sim.Fingerprint
	var rec [spillRecordSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("check: reading spill run %s: %w", path, err)
		}
		fp := sim.Fingerprint{
			Hi: binary.LittleEndian.Uint64(rec[0:8]),
			Lo: binary.LittleEndian.Uint64(rec[8:16]),
		}
		if i > 0 && !prev.Less(fp) {
			return nil, fmt.Errorf("check: spill run %s is not sorted at record %d", path, i)
		}
		prev = fp
		gen[fp] = binary.LittleEndian.Uint64(rec[16:24])
	}
	return gen, nil
}

// spillManifest is the per-wave checkpoint written next to the run files.
// It captures everything searchWaves needs to continue — the sealed waves'
// sub-results and budgets, the redistribution round, and the run-file
// inventory — and a digest of the semantic configuration so a Resume with a
// different search cannot silently mix checkpoints.
type spillManifest struct {
	Version     int             `json:"version"`
	Digest      string          `json:"digest"`
	Branches    int             `json:"branches"`
	WaveSize    int             `json:"wave_size"`
	WavesDone   int             `json:"waves_done"`
	Rounds      int             `json:"rounds"`
	Done        bool            `json:"done"`
	Subs        []*Result       `json:"subs"`
	SchedBudget []int           `json:"sched_budget"`
	StateBudget []int           `json:"state_budget"`
	Runs        []spillRunEntry `json:"runs"`
}

type spillRunEntry struct {
	Wave    int   `json:"wave"`
	Entries int64 `json:"entries"`
}

// manifestVersion changes whenever the manifest layout, the configDigest
// inputs or the fingerprint hash do, so an older checkpoint fails with a
// version error rather than a misleading digest mismatch or a resume
// against fingerprints the search no longer computes.
const manifestVersion = 4

func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

// configDigest hashes every configuration field that shapes the search tree
// or the Result bytes. Parallel is excluded (results are parallel-invariant
// by construction), as are MaxWaves, SpillDir, and Resume (they decide
// where a run stops or lives, not what it computes).
func configDigest(cfg Config, branches int) string {
	h := sha256.New()
	fmt.Fprintf(h, "alg=%s procs=%d width=%d model=%d passes=%d maxsteps=%d\n",
		cfg.Session.Algorithm.Name(), cfg.Session.Procs, cfg.Session.Width,
		cfg.Session.Model, cfg.Session.Passes, cfg.Session.MaxSteps)
	fmt.Fprintf(h, "sched=%d depth=%d crashes=%d states=%d seed=%d\n",
		cfg.MaxSchedules, cfg.MaxDepth, cfg.CrashesPerProc, cfg.MaxStates,
		cfg.Seed)
	fmt.Fprintf(h, "memo=%t por=%t sym=%t wave=%d branches=%d\n",
		cfg.Memo, cfg.POR, cfg.Symmetry, cfg.WaveSize, branches)
	return hex.EncodeToString(h.Sum(nil))
}

// writeManifest checkpoints the orchestrator state atomically.
func writeManifest(cfg Config, branches, wavesDone, rounds int, done bool,
	subs []*Result, schedBudget, stateBudget []int, store *sharedStore) error {
	man := spillManifest{
		Version:     manifestVersion,
		Digest:      configDigest(cfg, branches),
		Branches:    branches,
		WaveSize:    cfg.WaveSize,
		WavesDone:   wavesDone,
		Rounds:      rounds,
		Done:        done,
		Subs:        subs,
		SchedBudget: schedBudget,
		StateBudget: stateBudget,
	}
	for w := 0; w < wavesDone && w < len(store.waves); w++ {
		man.Runs = append(man.Runs, spillRunEntry{Wave: w, Entries: int64(len(store.waves[w]))})
	}
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return err
	}
	tmp := manifestPath(cfg.SpillDir) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("check: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, manifestPath(cfg.SpillDir)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("check: publishing manifest: %w", err)
	}
	return nil
}

// loadManifest reads and validates the checkpoint for a Resume run.
func loadManifest(cfg Config, branches int) (*spillManifest, error) {
	data, err := os.ReadFile(manifestPath(cfg.SpillDir))
	if err != nil {
		return nil, fmt.Errorf("check: Resume: reading checkpoint: %w", err)
	}
	var man spillManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("check: Resume: parsing checkpoint: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("check: Resume: checkpoint version %d, want %d", man.Version, manifestVersion)
	}
	if got, want := man.Digest, configDigest(cfg, branches); got != want {
		return nil, fmt.Errorf("check: Resume: checkpoint was written by a different configuration (digest %.12s, want %.12s)", got, want)
	}
	if man.Branches != branches {
		return nil, fmt.Errorf("check: Resume: checkpoint has %d branches, search has %d", man.Branches, branches)
	}
	nWaves := ceilDiv(branches, cfg.WaveSize)
	if man.WavesDone < 0 || man.WavesDone > nWaves {
		return nil, fmt.Errorf("check: Resume: checkpoint claims %d waves of %d", man.WavesDone, nWaves)
	}
	if man.Rounds < 0 || man.Rounds > maxBudgetRounds {
		return nil, fmt.Errorf("check: Resume: checkpoint claims budget round %d of %d", man.Rounds, maxBudgetRounds)
	}
	if len(man.Subs) != branches || len(man.SchedBudget) != branches || len(man.StateBudget) != branches {
		return nil, fmt.Errorf("check: Resume: checkpoint state arrays do not match %d branches", branches)
	}
	for i := 0; i < man.WavesDone*cfg.WaveSize && i < branches; i++ {
		if man.Subs[i] == nil {
			return nil, fmt.Errorf("check: Resume: checkpoint is missing the result of branch %d", i)
		}
	}
	return &man, nil
}
