package service

import (
	"fmt"
	"math"
	"sort"

	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/trace"
	"rme/internal/word"
)

// Config describes one lock-service run.
type Config struct {
	// Locks is the number of shards M; each shard is one lock instance.
	Locks int
	// Clients is the keyspace size: client ids are [0, Clients). Clients are
	// 4-byte records, so millions are cheap.
	Clients int
	// Passages is the target number of completed passages; the run stops at
	// the end of the round that reaches it.
	Passages int64
	// Dist is the arrival distribution (see ParseDist).
	Dist Dist
	// Seed drives the arrival stream; everything else is deterministic.
	Seed int64
	// Algorithm is the lock implementation every shard runs.
	Algorithm mutex.Algorithm
	// Width is the machine word size (default 8).
	Width word.Width
	// Model selects CC or DSM RMR accounting.
	Model sim.Model
	// Slots is the per-shard batch width: at most Slots queued requests
	// become processes of one sim run per round (default 8).
	Slots int
	// Rate is the arrival budget per round (default 2·Locks·Slots, slight
	// oversubscription so batches stay full). Queued requests across all
	// shards are capped at 4·Rate; arrivals beyond the cap are deferred,
	// modelling admission backpressure.
	Rate int
	// Parallel is the engine worker count (0 = GOMAXPROCS). The Report is
	// byte-identical at any value.
	Parallel int
	// Telemetry, when non-nil, receives live counters/gauges (service_* and
	// the engine_* family). Strictly observational.
	Telemetry *telemetry.Registry
	// TopCells, when > 0, turns on step-trace capture and reports the N
	// hottest cells by attributed RMRs. Costly: every run's event stream is
	// retained and folded, so use it on small workloads.
	TopCells int
}

func (c Config) withDefaults() Config {
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.Rate == 0 {
		c.Rate = 2 * c.Locks * c.Slots
	}
	return c
}

func (c Config) validate() error {
	if c.Locks < 1 {
		return fmt.Errorf("service: need at least 1 lock (got %d)", c.Locks)
	}
	if c.Clients < 1 {
		return fmt.Errorf("service: need at least 1 client (got %d)", c.Clients)
	}
	if c.Passages < 1 {
		return fmt.Errorf("service: need a positive passage target (got %d)", c.Passages)
	}
	if c.Algorithm == nil {
		return fmt.Errorf("service: no algorithm")
	}
	if c.Slots < 1 || c.Rate < 1 {
		return fmt.Errorf("service: Slots and Rate must be positive")
	}
	return nil
}

// LatencyStats summarizes request latencies in machine steps: from arrival
// at the shard queue to (interpolated) critical-section completion.
type LatencyStats struct {
	Min int64 `json:"min"`
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

// FairnessStats summarizes the per-client passage-count spread over clients
// that completed at least one passage.
type FairnessStats struct {
	// ClientsServed counts distinct clients with ≥ 1 completed passage.
	ClientsServed int `json:"clients_served"`
	// Min/P50/P99/Max are quantiles of passages-per-served-client.
	Min int64 `json:"min"`
	P50 int64 `json:"p50"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
	// JainIndex is Jain's fairness index over served clients: 1.0 when all
	// served clients completed equally many passages, → 1/k under maximal
	// skew. Rounded to 4 decimals.
	JainIndex float64 `json:"jain_index"`
}

// ShardStat is one shard's accumulated results.
type ShardStat struct {
	Shard    int   `json:"shard"`
	Passages int64 `json:"passages"`
	Steps    int64 `json:"steps"`
	RMRCC    int64 `json:"rmr_cc"`
	RMRDSM   int64 `json:"rmr_dsm"`
	// Pending is the queue depth left when the run stopped.
	Pending int `json:"pending,omitempty"`
}

// Report is the deterministic outcome of a Run: every field derives from
// the seed and configuration, never from wall time, so encoding it is
// byte-identical at any -parallel.
type Report struct {
	Locks          int    `json:"locks"`
	Clients        int    `json:"clients"`
	Dist           string `json:"dist"`
	Seed           int64  `json:"seed"`
	Algorithm      string `json:"algorithm"`
	Model          string `json:"model"`
	Width          int    `json:"width"`
	Slots          int    `json:"slots"`
	Rate           int    `json:"rate"`
	TargetPassages int64  `json:"target_passages"`

	// Passages is the number completed (≥ TargetPassages); Pending is the
	// backlog left queued when the target was reached.
	Passages int64 `json:"passages"`
	Arrivals int64 `json:"arrivals"`
	Pending  int64 `json:"pending"`
	Rounds   int64 `json:"rounds"`
	// Steps sums machine steps across all shards; PassagesPerMSteps is the
	// machine-time throughput (passages per million steps) — the
	// deterministic analogue of passages/sec, which depends on the host and
	// goes to stderr instead.
	Steps             int64   `json:"steps"`
	PassagesPerMSteps float64 `json:"passages_per_1m_steps"`

	Latency  LatencyStats  `json:"latency_steps"`
	Fairness FairnessStats `json:"fairness"`

	// RMRCC/RMRDSM aggregate remote memory references across all shards
	// under both models; the per-passage averages divide by Passages.
	RMRCC            int64   `json:"rmr_cc"`
	RMRDSM           int64   `json:"rmr_dsm"`
	RMRPerPassageCC  float64 `json:"rmr_per_passage_cc"`
	RMRPerPassageDSM float64 `json:"rmr_per_passage_dsm"`

	Shards []ShardStat `json:"shards"`
	// TopCells is the hottest-cell attribution table (Config.TopCells > 0).
	TopCells []trace.CellStat `json:"top_cells,omitempty"`
}

// Counters returns the report's scalars as perf-ledger counters. Quantiles
// are in machine steps, so all are exactly gateable; Jain's index is scaled
// by 10^4 and rounded to stay an integer.
func (r *Report) Counters() map[string]int64 {
	return map[string]int64{
		"passages":                r.Passages,
		"rounds":                  r.Rounds,
		"arrivals":                r.Arrivals,
		"pending":                 r.Pending,
		"steps":                   r.Steps,
		"rmr_cc":                  r.RMRCC,
		"rmr_dsm":                 r.RMRDSM,
		"latency_p50":             r.Latency.P50,
		"latency_p99":             r.Latency.P99,
		"latency_max":             r.Latency.Max,
		"fairness_clients_served": int64(r.Fairness.ClientsServed),
		"fairness_p99":            r.Fairness.P99,
		"jain_x10000":             int64(r.Fairness.JainIndex*10000 + 0.5),
	}
}

// collectOrder is the engine Collect hook: the CS grant order is the only
// payload the service needs back from a run.
func collectOrder(s *mutex.Session) (interface{}, error) { return s.CSOrder(), nil }

// latencyBounds buckets the service_latency_steps histogram.
var latencyBounds = []int64{32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// Run drives the lock service to its passage target and returns the report.
//
// Each round: (1) up to Rate arrivals are drawn from the stream and pushed
// onto their shards' queues (admission-capped at 4·Rate queued requests);
// (2) every non-empty shard contributes one RunSpec of min(Slots, queue)
// processes, submitted in shard order to a persistent engine pool; (3)
// results fold back in submission order — shard clocks advance by the run's
// step count, each granted request's latency is its queue wait plus its
// interpolated completion within the batch, and fairness/RMR tallies
// update. The loop exits at the end of the round that reaches the passage
// target.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	stream, err := NewStream(cfg.Dist, cfg.Clients, cfg.Seed)
	if err != nil {
		return nil, err
	}

	pool := engine.NewPool(cfg.Parallel)
	defer pool.Close()

	arena := newOpArena()
	shards := make([]shardState, cfg.Locks)
	for i := range shards {
		shards[i].head, shards[i].tail = nilNode, nilNode
	}
	served := make([]int32, cfg.Clients)
	var latencies []int64

	// Telemetry handles (all nil-safe when cfg.Telemetry is nil).
	tPassages := cfg.Telemetry.Counter("service_passages")
	tArrivals := cfg.Telemetry.Counter("service_arrivals")
	tRounds := cfg.Telemetry.Counter("service_rounds")
	tOutstanding := cfg.Telemetry.Gauge("service_outstanding")
	tTarget := cfg.Telemetry.Gauge("service_target_passages")
	tLatency := cfg.Telemetry.Histogram("service_latency_steps", latencyBounds)
	tTarget.Set(cfg.Passages)

	// Per-round scratch, reused across rounds.
	var (
		specs       []engine.RunSpec
		batchShards []int
		batchOps    [][]int32
		opsBacking  [][]int32 // len cfg.Locks, recycled batch slices
	)
	opsBacking = make([][]int32, cfg.Locks)

	topCells := map[string]*trace.CellStat{}

	var (
		passages    int64
		arrivals    int64
		rounds      int64
		outstanding int
		totalSteps  int64
		rmrCC       int64
		rmrDSM      int64
	)

	baseCfg := mutex.Config{
		Width:     cfg.Width,
		Model:     cfg.Model,
		Algorithm: cfg.Algorithm,
		Passes:    1,
		NoTrace:   true,
	}

	for passages < cfg.Passages {
		rounds++
		tRounds.Inc()

		// (1) Arrivals, admission-capped.
		gen := cfg.Rate
		if room := 4*cfg.Rate - outstanding; gen > room {
			gen = room
		}
		for i := 0; i < gen; i++ {
			c := stream.Next()
			sh := ShardOf(c, cfg.Locks)
			n := arena.alloc(int32(c), shards[sh].clock)
			shards[sh].push(arena, n)
			outstanding++
			arrivals++
		}
		tArrivals.Add(int64(gen))
		tOutstanding.Set(int64(outstanding))

		// (2) One spec per non-empty shard, in shard order.
		specs = specs[:0]
		batchShards = batchShards[:0]
		batchOps = batchOps[:0]
		for si := range shards {
			if shards[si].qlen == 0 {
				continue
			}
			b := cfg.Slots
			if shards[si].qlen < b {
				b = shards[si].qlen
			}
			buf := opsBacking[si][:0]
			buf = shards[si].popInto(arena, buf, b)
			opsBacking[si] = buf
			sc := baseCfg
			sc.Procs = len(buf)
			specs = append(specs, engine.RunSpec{Session: sc, Collect: collectOrder})
			batchShards = append(batchShards, si)
			batchOps = append(batchOps, buf)
		}
		if len(specs) == 0 {
			return nil, fmt.Errorf("service: stalled with no arrivals and no backlog after %d passages", passages)
		}

		opts := engine.Options{Parallel: cfg.Parallel, Telemetry: cfg.Telemetry}
		var tc *trace.Capture
		if cfg.TopCells > 0 {
			tc = &trace.Capture{}
			opts.Trace = tc
		}
		res := pool.Run(specs, opts)

		// (3) Fold results in submission order.
		for k := range res {
			r := &res[k]
			si := batchShards[k]
			sh := &shards[si]
			if r.Err != nil {
				return nil, fmt.Errorf("service: shard %d round %d: %w", si, rounds, r.Err)
			}
			if len(r.Violations) > 0 {
				return nil, fmt.Errorf("service: shard %d round %d: safety violation: %s", si, rounds, r.Violations[0])
			}
			ops := batchOps[k]
			order, ok := r.Payload.([]int)
			if !ok || len(order) != len(ops) {
				return nil, fmt.Errorf("service: shard %d round %d: incomplete CS order (%d of %d)", si, rounds, len(order), len(ops))
			}
			b := int64(len(ops))
			steps := int64(r.Steps)
			for rank, p := range order {
				node := ops[p]
				// The batch's b requests complete spread across its steps;
				// request at grant rank r finishes at ⌈steps·(r+1)/b⌉ into
				// the run. Latency = queue wait + that completion offset.
				fin := sh.clock + (steps*int64(rank+1)+b-1)/b
				lat := fin - arena.nodes[node].enq
				latencies = append(latencies, lat)
				tLatency.Observe(lat)
				served[arena.nodes[node].client]++
				arena.release(node)
				sh.passages++
				passages++
			}
			tPassages.Add(b)
			outstanding -= len(ops)
			sh.clock += steps
			sh.steps += steps
			totalSteps += steps
			sh.rmrCC += int64(r.TotalRMRCC)
			sh.rmrDSM += int64(r.TotalRMRDSM)
			rmrCC += int64(r.TotalRMRCC)
			rmrDSM += int64(r.TotalRMRDSM)
		}
		tOutstanding.Set(int64(outstanding))

		if tc != nil {
			trace.FoldCells(topCells, trace.Merge(tc.Runs()).Cells)
		}
	}

	rep := &Report{
		Locks:          cfg.Locks,
		Clients:        cfg.Clients,
		Dist:           cfg.Dist.String(),
		Seed:           cfg.Seed,
		Algorithm:      cfg.Algorithm.Name(),
		Model:          cfg.Model.String(),
		Width:          int(cfg.Width),
		Slots:          cfg.Slots,
		Rate:           cfg.Rate,
		TargetPassages: cfg.Passages,
		Passages:       passages,
		Arrivals:       arrivals,
		Pending:        int64(outstanding),
		Rounds:         rounds,
		Steps:          totalSteps,
		RMRCC:          rmrCC,
		RMRDSM:         rmrDSM,
	}
	if totalSteps > 0 {
		rep.PassagesPerMSteps = round2(float64(passages) / float64(totalSteps) * 1e6)
	}
	if passages > 0 {
		rep.RMRPerPassageCC = round2(float64(rmrCC) / float64(passages))
		rep.RMRPerPassageDSM = round2(float64(rmrDSM) / float64(passages))
	}
	rep.Latency = latencyStats(latencies)
	rep.Fairness = fairnessStats(served)
	rep.Shards = make([]ShardStat, cfg.Locks)
	for i := range shards {
		rep.Shards[i] = ShardStat{
			Shard:    i,
			Passages: shards[i].passages,
			Steps:    shards[i].steps,
			RMRCC:    shards[i].rmrCC,
			RMRDSM:   shards[i].rmrDSM,
			Pending:  shards[i].qlen,
		}
	}
	if cfg.TopCells > 0 {
		rep.TopCells = topN(topCells, cfg.TopCells)
	}
	return rep, nil
}

// topN renders the n hottest cells (by combined RMRs, label-tiebroken).
func topN(acc map[string]*trace.CellStat, n int) []trace.CellStat {
	out := make([]trace.CellStat, 0, len(acc))
	for _, c := range acc {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].RMRCC+out[i].RMRDSM, out[j].RMRCC+out[j].RMRDSM
		if ti != tj {
			return ti > tj
		}
		return out[i].Label < out[j].Label
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// latencyStats sorts in place and reads nearest-rank percentiles.
func latencyStats(lat []int64) LatencyStats {
	if len(lat) == 0 {
		return LatencyStats{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return LatencyStats{
		Min: lat[0],
		P50: percentile(lat, 50),
		P90: percentile(lat, 90),
		P99: percentile(lat, 99),
		Max: lat[len(lat)-1],
	}
}

// fairnessStats summarizes the passage spread over served clients.
func fairnessStats(served []int32) FairnessStats {
	counts := make([]int64, 0, 1024)
	for _, s := range served {
		if s > 0 {
			counts = append(counts, int64(s))
		}
	}
	if len(counts) == 0 {
		return FairnessStats{}
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	var sum, sumSq float64
	for _, c := range counts {
		f := float64(c)
		sum += f
		sumSq += f * f
	}
	jain := sum * sum / (float64(len(counts)) * sumSq)
	return FairnessStats{
		ClientsServed: len(counts),
		Min:           counts[0],
		P50:           percentile(counts, 50),
		P99:           percentile(counts, 99),
		Max:           counts[len(counts)-1],
		JainIndex:     math.Round(jain*1e4) / 1e4,
	}
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []int64, p int) int64 {
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }
