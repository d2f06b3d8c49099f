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
// sorted by fingerprint, so membership is a binary search over ReadAt —
// no index needs to be resident. A small in-memory bloom filter (rebuilt on
// open) screens out most misses before any file I/O.
//
//	offset 0   8 bytes  magic "RMESPILL"
//	offset 8   4 bytes  version (little-endian)
//	offset 12  4 bytes  reserved (zero)
//	offset 16  8 bytes  record count
//	offset 24  count x 24-byte records: fingerprint Hi, Lo, sleep mask
//
// The version changes with the layout and with the fingerprint hash
// (sim.Fingerprint), so a run written under another hash fails to open
// instead of answering lookups for states it never saw.
const (
	spillMagic      = "RMESPILL"
	spillVersion    = 2
	spillHeaderSize = 24
	spillRecordSize = 24
)

// Bloom sizing: ~10 bits per entry with 4 probes keeps the false-positive
// rate around 1%, so nearly every miss is answered without touching disk.
const (
	bloomBitsPerEntry = 10
	bloomProbes       = 4
)

// spillRun is one sealed wave's visited set on disk, open for concurrent
// point lookups (File.ReadAt is safe to call from multiple goroutines).
type spillRun struct {
	f     *os.File
	count int64
	bloom []uint64
}

type spillEntry struct {
	fp   sim.Fingerprint
	mask uint64
}

func spillRunPath(dir string, wave int) string {
	return filepath.Join(dir, fmt.Sprintf("wave%04d.run", wave))
}

// writeSpillRun sorts the generation and writes it atomically (temp file +
// rename), then reopens it for reads.
func writeSpillRun(path string, gen map[sim.Fingerprint]uint64) (*spillRun, error) {
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
		return nil, fmt.Errorf("check: writing spill run: %w", err)
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
		return nil, fmt.Errorf("check: writing spill run: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("check: syncing spill run: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("check: closing spill run: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("check: publishing spill run: %w", err)
	}

	run, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("check: reopening spill run: %w", err)
	}
	sr := &spillRun{f: run, count: int64(len(entries)), bloom: newBloom(len(entries))}
	for _, e := range entries {
		bloomAdd(sr.bloom, e.fp)
	}
	return sr, nil
}

// openSpillRun opens a checkpointed run, validates the header and the sort
// order, and rebuilds the bloom filter with one streaming pass.
func openSpillRun(path string) (*spillRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("check: opening spill run: %w", err)
	}
	var hdr [spillHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("check: reading spill run header %s: %w", path, err)
	}
	if string(hdr[:8]) != spillMagic {
		f.Close()
		return nil, fmt.Errorf("check: %s is not a spill run (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != spillVersion {
		f.Close()
		return nil, fmt.Errorf("check: spill run %s has version %d, want %d", path, v, spillVersion)
	}
	count := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	if fi, err := f.Stat(); err != nil {
		f.Close()
		return nil, err
	} else if want := spillHeaderSize + count*spillRecordSize; fi.Size() != want {
		f.Close()
		return nil, fmt.Errorf("check: spill run %s is %d bytes, want %d", path, fi.Size(), want)
	}

	sr := &spillRun{f: f, count: count, bloom: newBloom(int(count))}
	r := bufio.NewReaderSize(io.NewSectionReader(f, spillHeaderSize, count*spillRecordSize), 1<<16)
	var prev sim.Fingerprint
	var rec [spillRecordSize]byte
	for i := int64(0); i < count; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("check: reading spill run %s: %w", path, err)
		}
		fp := sim.Fingerprint{
			Hi: binary.LittleEndian.Uint64(rec[0:8]),
			Lo: binary.LittleEndian.Uint64(rec[8:16]),
		}
		if i > 0 && !prev.Less(fp) {
			f.Close()
			return nil, fmt.Errorf("check: spill run %s is not sorted at record %d", path, i)
		}
		prev = fp
		bloomAdd(sr.bloom, fp)
	}
	return sr, nil
}

func (sr *spillRun) close() {
	if sr.f != nil {
		sr.f.Close()
	}
}

func (sr *spillRun) sizeBytes() int64 {
	return spillHeaderSize + sr.count*spillRecordSize
}

// lookup binary-searches the sorted records for fp, after the bloom filter
// has had a chance to answer "definitely absent" for free.
func (sr *spillRun) lookup(fp sim.Fingerprint) (uint64, bool) {
	if sr.count == 0 || !bloomMayContain(sr.bloom, fp) {
		return 0, false
	}
	lo, hi := int64(0), sr.count
	var rec [spillRecordSize]byte
	for lo < hi {
		mid := (lo + hi) / 2
		if _, err := sr.f.ReadAt(rec[:], spillHeaderSize+mid*spillRecordSize); err != nil {
			return 0, false
		}
		got := sim.Fingerprint{
			Hi: binary.LittleEndian.Uint64(rec[0:8]),
			Lo: binary.LittleEndian.Uint64(rec[8:16]),
		}
		switch {
		case got == fp:
			return binary.LittleEndian.Uint64(rec[16:24]), true
		case got.Less(fp):
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}

func newBloom(entries int) []uint64 {
	words := (entries*bloomBitsPerEntry + 63) / 64
	if words < 1 {
		words = 1
	}
	return make([]uint64, words)
}

// bloomIdx derives the i-th probe position by double hashing over the two
// fingerprint words; |1 keeps the stride odd so probes never collapse.
func bloomIdx(bloom []uint64, fp sim.Fingerprint, i uint64) (word, bit uint64) {
	pos := (fp.Hi + i*(fp.Lo|1)) % (uint64(len(bloom)) * 64)
	return pos / 64, pos % 64
}

func bloomAdd(bloom []uint64, fp sim.Fingerprint) {
	for i := uint64(0); i < bloomProbes; i++ {
		w, b := bloomIdx(bloom, fp, i)
		bloom[w] |= 1 << b
	}
}

func bloomMayContain(bloom []uint64, fp sim.Fingerprint) bool {
	for i := uint64(0); i < bloomProbes; i++ {
		w, b := bloomIdx(bloom, fp, i)
		if bloom[w]>>b&1 == 0 {
			return false
		}
	}
	return true
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
// by construction), as are MaxWaves, MemBudget, SpillDir, and Resume (they
// decide where a run stops or lives, not what it computes).
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
		if r := store.waves[w].run; r != nil {
			man.Runs = append(man.Runs, spillRunEntry{Wave: w, Entries: r.count})
		}
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
