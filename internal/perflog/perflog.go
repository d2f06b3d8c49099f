// Package perflog is the cross-run performance ledger: schema-versioned run
// manifests appended as JSONL, so the repository accumulates a comparable
// trajectory of every tool's deterministic counters and advisory wall-clock
// samples across commits and machines.
//
// A manifest separates what can be gated from what can only be compared:
//
//   - Counters hold the run's deterministic counter set (RMR totals, machine
//     steps, states visited, ...). Every instrumented tool produces these
//     byte-stably — the same configuration and seed yield the same values at
//     any -parallel, with telemetry on or off, on any host — so a downstream
//     gate (cmd/rmereport regress) compares them for exact equality and
//     treats any difference as a regression.
//   - Wall holds host-dependent samples (wall milliseconds, throughput).
//     They are advisory: rmereport compares them statistically
//     (Mann-Whitney U over matched sample sets) and never fails a build on
//     them, because on a 1-CPU builder wall-clock is noise.
//   - Telemetry carries the final telemetry registry snapshot when the run
//     had telemetry enabled — extra advisory context, absent otherwise.
//
// Identity follows the spill-manifest convention of internal/check: the
// semantic configuration (the flags that shape the result, never -parallel,
// -heartbeat, or the ledger path itself) is recorded as a flat string map
// and hashed into ConfigDigest, and runs match across ledgers iff
// (Tool, ConfigDigest) match. Build provenance (go version, VCS revision,
// dirty bit) from runtime/debug.ReadBuildInfo identifies the code that
// produced each run without participating in the digest.
package perflog

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
)

// Version is the manifest schema version; Read rejects other versions.
const Version = 1

// Provenance identifies the build that produced a run, read from
// runtime/debug.ReadBuildInfo. Fields are empty when the binary carries no
// VCS stamp (go test, go run of a dirty tree without vcs info).
type Provenance struct {
	GoVersion string `json:"go_version,omitempty"`
	// Revision is the full VCS commit hash; Dirty reports uncommitted
	// changes at build time.
	Revision string `json:"revision,omitempty"`
	Dirty    bool   `json:"dirty,omitempty"`
	// CommitTime is the commit timestamp (vcs.time), not the build's wall
	// clock: it is a property of the revision, so it stays stable across
	// rebuilds of the same commit.
	CommitTime string `json:"commit_time,omitempty"`
}

// Build reads the current binary's provenance. Missing build info yields a
// Provenance with only the runtime's Go version.
func Build() Provenance {
	p := Provenance{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return p
	}
	if info.GoVersion != "" {
		p.GoVersion = info.GoVersion
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			p.Revision = s.Value
		case "vcs.modified":
			p.Dirty = s.Value == "true"
		case "vcs.time":
			p.CommitTime = s.Value
		}
	}
	return p
}

// Short renders the provenance compactly for version banners and tables.
func (p Provenance) Short() string {
	rev := p.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev == "" {
		rev = "(no vcs stamp)"
	}
	if p.Dirty {
		rev += "+dirty"
	}
	return fmt.Sprintf("%s %s", p.GoVersion, rev)
}

// Manifest is one run's ledger entry.
type Manifest struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// Label is the free-form -runlabel tag ("baseline", "ci", a ticket id).
	// It annotates the run and is excluded from identity: a relabelled rerun
	// of the same configuration still matches.
	Label string `json:"label,omitempty"`
	// Config is the semantic configuration: every flag that shapes the
	// result, as flat strings. Non-semantic flags (-parallel, -heartbeat,
	// the ledger path, profiles) are deliberately absent, so the digest is
	// stable under observability and execution-layout changes.
	Config       map[string]string `json:"config"`
	ConfigDigest string            `json:"config_digest"`
	Provenance   Provenance        `json:"provenance"`
	// Counters is the deterministic counter set, gated exactly by
	// rmereport regress.
	Counters map[string]int64 `json:"counters"`
	// Wall holds host-dependent advisory samples (milliseconds, rates).
	Wall map[string]float64 `json:"wall,omitempty"`
	// Telemetry is the final telemetry registry snapshot (flat series),
	// present only when the run had telemetry enabled. Advisory.
	Telemetry map[string]int64 `json:"telemetry,omitempty"`
}

// New returns an empty manifest for the named tool with all sections
// initialised.
func New(tool string) *Manifest {
	return &Manifest{
		Version:  Version,
		Tool:     tool,
		Config:   map[string]string{},
		Counters: map[string]int64{},
		Wall:     map[string]float64{},
	}
}

// SetConfig records one semantic configuration key. Values render via
// fmt.Sprint, so bools, ints, and Stringers all read naturally.
func (m *Manifest) SetConfig(key string, v any) {
	m.Config[key] = fmt.Sprint(v)
}

// AddCounters records a result's deterministic counter set, each name
// prefixed (prefix may be empty) so two results can share one manifest.
func (m *Manifest) AddCounters(prefix string, counters map[string]int64) {
	for k, v := range counters {
		m.Counters[prefix+k] = v
	}
}

// Sample records one advisory wall-clock sample.
func (m *Manifest) Sample(key string, v float64) {
	m.Wall[key] = v
}

// Finalize stamps the schema version and computes the config digest. Call
// after the last SetConfig and before appending to a ledger.
func (m *Manifest) Finalize() {
	m.Version = Version
	m.ConfigDigest = Digest(m.Config)
}

// Key is the cross-ledger matching identity: tool plus semantic digest.
func (m *Manifest) Key() string {
	return m.Tool + ":" + m.ConfigDigest
}

// Digest hashes a semantic configuration: sha256 over "key=value\n" lines in
// sorted key order, hex-encoded. Mirrors internal/check's spill-manifest
// configDigest convention.
func Digest(config map[string]string) string {
	keys := make([]string, 0, len(config))
	for k := range config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		// Length-prefixed framing: "a"="b=c" must not collide with "a=b"="c".
		fmt.Fprintf(h, "%d:%s=%d:%s\n", len(k), k, len(config[k]), config[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// semantic is the deterministic portion of a manifest: what must be
// byte-identical across reruns of the same configuration.
type semantic struct {
	Version      int               `json:"version"`
	Tool         string            `json:"tool"`
	Config       map[string]string `json:"config"`
	ConfigDigest string            `json:"config_digest"`
	Counters     map[string]int64  `json:"counters"`
}

// SemanticBytes encodes the manifest's deterministic portion — version,
// tool, config, digest, and counters, with map keys in sorted order — and
// omits everything host- or run-dependent (label, provenance, wall samples,
// telemetry snapshot). Two runs of the same semantic configuration must
// produce identical SemanticBytes at any -parallel value and with telemetry
// on or off; the determinism tests pin exactly that.
func (m *Manifest) SemanticBytes() []byte {
	blob, err := json.Marshal(semantic{
		Version:      m.Version,
		Tool:         m.Tool,
		Config:       m.Config,
		ConfigDigest: m.ConfigDigest,
		Counters:     m.Counters,
	})
	if err != nil {
		// Maps of strings and int64s cannot fail to encode.
		panic(fmt.Sprintf("perflog: encoding semantic manifest: %v", err))
	}
	return blob
}
