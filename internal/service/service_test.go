package service

import (
	"reflect"
	"testing"

	"rme"
	"rme/internal/sim"
	"rme/internal/telemetry"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Locks:     8,
		Clients:   5000,
		Passages:  1500,
		Dist:      Dist{Kind: Zipf, Theta: 1.2},
		Seed:      9,
		Algorithm: rme.MustAlgorithm("watree"),
		Model:     sim.CC,
	}
}

// TestRunInvariants drives a small skewed service and checks the report's
// internal consistency: totals match their per-shard decomposition, every
// arrival is accounted for, and the summary statistics are populated.
func TestRunInvariants(t *testing.T) {
	cfg := testConfig(t)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passages < cfg.Passages {
		t.Fatalf("completed %d passages; target %d", rep.Passages, cfg.Passages)
	}
	if rep.Arrivals != rep.Passages+rep.Pending {
		t.Fatalf("arrivals %d != passages %d + pending %d", rep.Arrivals, rep.Passages, rep.Pending)
	}
	var shardPassages, shardSteps, shardCC, shardDSM, shardPending int64
	for _, s := range rep.Shards {
		shardPassages += s.Passages
		shardSteps += s.Steps
		shardCC += s.RMRCC
		shardDSM += s.RMRDSM
		shardPending += int64(s.Pending)
	}
	if shardPassages != rep.Passages || shardSteps != rep.Steps {
		t.Fatalf("shard decomposition (%d passages, %d steps) != totals (%d, %d)",
			shardPassages, shardSteps, rep.Passages, rep.Steps)
	}
	if shardCC != rep.RMRCC || shardDSM != rep.RMRDSM {
		t.Fatalf("shard RMRs (%d/%d) != totals (%d/%d)", shardCC, shardDSM, rep.RMRCC, rep.RMRDSM)
	}
	if shardPending != rep.Pending {
		t.Fatalf("shard pending %d != total pending %d", shardPending, rep.Pending)
	}
	if rep.Latency.Max < rep.Latency.P99 || rep.Latency.P99 < rep.Latency.P50 || rep.Latency.P50 < rep.Latency.Min {
		t.Fatalf("latency quantiles out of order: %+v", rep.Latency)
	}
	if rep.Latency.Min <= 0 {
		t.Fatalf("latency min %d; every passage costs at least one step", rep.Latency.Min)
	}
	if rep.Fairness.ClientsServed <= 0 || rep.Fairness.JainIndex <= 0 || rep.Fairness.JainIndex > 1 {
		t.Fatalf("implausible fairness: %+v", rep.Fairness)
	}
	if rep.RMRCC <= 0 || rep.PassagesPerMSteps <= 0 {
		t.Fatalf("missing RMR/throughput totals: rmr_cc=%d thpt=%v", rep.RMRCC, rep.PassagesPerMSteps)
	}
}

// TestRunDeterministicAcrossParallelism is the service-level half of the
// byte-parity guarantee: the whole Report must be identical at any worker
// count (the CLI test covers the encoded form).
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	cfg := testConfig(t)
	cfg.Parallel = 1
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	four, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("report differs between Parallel=1 and 4:\n%+v\nvs\n%+v", one, four)
	}
}

// TestRunSkewConcentrates checks that Zipf traffic actually lands unevenly.
// Shard passage counts flatten under load (a saturated shard serves at most
// Slots per round regardless of backlog), so the skew must show where it
// really lives: hot clients complete far more passages than the median
// client, and the busiest shard still out-serves the quietest.
func TestRunSkewConcentrates(t *testing.T) {
	cfg := testConfig(t)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fairness.Max < 10*rep.Fairness.P50 {
		t.Fatalf("zipf(1.2) per-client spread looks uniform: p50 %d max %d",
			rep.Fairness.P50, rep.Fairness.Max)
	}
	min, max := rep.Shards[0].Passages, rep.Shards[0].Passages
	for _, s := range rep.Shards[1:] {
		if s.Passages < min {
			min = s.Passages
		}
		if s.Passages > max {
			max = s.Passages
		}
	}
	if max <= min {
		t.Fatalf("zipf(1.2) shard load perfectly level: min %d max %d", min, max)
	}
}

// TestRunTopCells exercises the attribution path end to end.
func TestRunTopCells(t *testing.T) {
	cfg := testConfig(t)
	cfg.Passages = 200
	cfg.TopCells = 3
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TopCells) == 0 || len(rep.TopCells) > 3 {
		t.Fatalf("want 1..3 top cells, got %d", len(rep.TopCells))
	}
	if rep.TopCells[0].RMRCC+rep.TopCells[0].RMRDSM == 0 {
		t.Fatalf("top cell has no attributed RMRs: %+v", rep.TopCells[0])
	}
}

// TestRunTelemetryObservational runs with a live registry and checks both
// that the counters move and that instrumenting changes nothing in the
// report.
func TestRunTelemetryObservational(t *testing.T) {
	cfg := testConfig(t)
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cfg.Telemetry = reg
	instr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, instr) {
		t.Fatal("telemetry changed the report")
	}
	snap := reg.Snapshot()
	found := map[string]int64{}
	for _, c := range snap.Counters {
		found[c.Name] = c.Value
	}
	if found["service_passages"] != bare.Passages {
		t.Fatalf("service_passages=%d; want %d", found["service_passages"], bare.Passages)
	}
	if found["service_rounds"] != bare.Rounds {
		t.Fatalf("service_rounds=%d; want %d", found["service_rounds"], bare.Rounds)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Locks: 1, Clients: 1, Passages: 1}, // no algorithm
		{Locks: 0, Clients: 1, Passages: 1, Algorithm: rme.MustAlgorithm("tas")},
		{Locks: 1, Clients: 0, Passages: 1, Algorithm: rme.MustAlgorithm("tas")},
		{Locks: 1, Clients: 1, Passages: 0, Algorithm: rme.MustAlgorithm("tas")},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

// TestSessionBuildsBoundedByShapes runs the rmeserve ledger anchor (16
// locks, 20,000 clients, zipf:1.1, seed 1) on two engine workers and counts
// session constructions: each worker builds at most one session per shard
// batch size and resets it for every later batch of that size.
func TestSessionBuildsBoundedByShapes(t *testing.T) {
	reg := telemetry.New()
	cfg := Config{
		Locks:     16,
		Clients:   20_000,
		Passages:  1500,
		Dist:      Dist{Kind: Zipf, Theta: 1.1},
		Seed:      1,
		Algorithm: rme.MustAlgorithm("watree"),
		Model:     sim.CC,
		Parallel:  2,
		Telemetry: reg,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	found := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		found[c.Name] = c.Value
	}
	limit := int64(cfg.Parallel * cfg.withDefaults().Slots)
	if builds := found["engine_session_build"]; builds < 1 || builds > limit {
		t.Fatalf("engine_session_build=%d; want 1..%d (Parallel × Slots)", builds, limit)
	}
	if found["engine_session_reuse"] == 0 {
		t.Fatal("engine_session_reuse=0: no session was recycled")
	}
}
