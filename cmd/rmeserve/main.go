// Command rmeserve runs the sharded lock-service workload: M locks over a
// hashed keyspace, a seeded arrival stream (uniform, Zipf, or bursty) over
// millions of lightweight client records, and per-shard simulated machines
// batched through the deterministic engine pool. It reports throughput,
// tail latency (in machine steps), per-client fairness spread, and
// aggregate RMR cost under both models.
//
// The report — text or -json — derives entirely from the seed and the
// configuration, so it is byte-identical at any -parallel value. Wall-clock
// figures (passages/sec on this host) go to stderr only.
//
// Usage:
//
//	rmeserve [-locks 64] [-clients 1000000] [-passages 10000]
//	         [-dist zipf:1.1] [-alg watree] [-model cc] [-w 8]
//	         [-slots 8] [-rate N] [-seed 1] [-parallel N] [-json]
//	         [-top N] [-cpuprofile FILE] [-memprofile FILE]
//	         [-heartbeat DUR] [-metrics FILE] [-debugaddr ADDR]
//	         [-ledger runs/ledger.jsonl] [-runlabel LABEL] [-version]
//
// -dist accepts uniform, zipf[:theta] (theta > 1), and bursty[:frac]
// (active keyspace fraction). -top N additionally captures step traces and
// prints the N hottest cells by attributed RMRs (expensive; use small
// -passages). The telemetry bundle (-heartbeat/-metrics/-debugaddr) is
// strictly observational.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"rme"
	"rme/internal/cliutil"
	"rme/internal/perflog"
	"rme/internal/service"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/word"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rmeserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rmeserve", flag.ContinueOnError)
	locks := fs.Int("locks", 64, "number of lock shards")
	clients := fs.Int("clients", 1_000_000, "keyspace size (client records)")
	passages := fs.Int64("passages", 10_000, "passage target; the run stops once reached")
	dist := fs.String("dist", "zipf:1.1", "arrival distribution: uniform, zipf[:theta], bursty[:frac]")
	algName := fs.String("alg", "watree", "lock algorithm every shard runs: "+strings.Join(rme.AlgorithmNames(), ", "))
	modelName := fs.String("model", "cc", "RMR cost model: cc or dsm")
	w := fs.Int("w", 8, "machine word size in bits")
	slots := fs.Int("slots", 8, "per-shard batch width (processes per sim run)")
	rate := fs.Int("rate", 0, "arrival budget per round (0 = 2*locks*slots)")
	seed := fs.Int64("seed", 1, "arrival-stream seed")
	parallel := fs.Int("parallel", 0, "engine workers (0 = GOMAXPROCS); report is identical at any value")
	jsonOut := fs.Bool("json", false, "emit the report as JSON on stdout")
	top := fs.Int("top", 0, "capture step traces and report the N hottest cells (expensive)")
	diag := cliutil.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	view := telemetry.View{
		Progress:    "service_passages",
		Target:      "service_target_passages",
		Show:        []string{"service_outstanding"},
		UtilBusy:    "engine_busy_ns",
		UtilWorkers: "engine_workers",
	}
	return diag.Do("rmeserve", view, func() ([]*perflog.Manifest, error) {
		alg, err := rme.NewAlgorithm(*algName)
		if err != nil {
			return nil, err
		}
		model, err := sim.ParseModel(*modelName)
		if err != nil {
			return nil, err
		}
		d, err := service.ParseDist(*dist)
		if err != nil {
			return nil, err
		}
		cfg := service.Config{
			Locks:     *locks,
			Clients:   *clients,
			Passages:  *passages,
			Dist:      d,
			Seed:      *seed,
			Algorithm: alg,
			Width:     word.Width(*w),
			Model:     model,
			Slots:     *slots,
			Rate:      *rate,
			Parallel:  *parallel,
			Telemetry: diag.Registry(),
			TopCells:  *top,
		}

		start := time.Now()
		rep, err := service.Run(cfg)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		// Host-dependent throughput goes to stderr so stdout stays
		// byte-identical across hosts and -parallel values.
		fmt.Fprintf(os.Stderr, "rmeserve: %d passages in %s (%.0f passages/sec)\n",
			rep.Passages, wall.Round(time.Millisecond), float64(rep.Passages)/wall.Seconds())

		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			// The embed keeps the report's field order and adds build
			// provenance at the end, so existing consumers and the -parallel
			// parity guarantee are untouched (both runs carry the same
			// provenance).
			if err := enc.Encode(struct {
				*service.Report
				Provenance perflog.Provenance `json:"provenance"`
			}{rep, perflog.Build()}); err != nil {
				return nil, err
			}
		} else {
			printReport(rep)
		}
		m := perflog.New("rmeserve")
		m.SetConfig("locks", rep.Locks)
		m.SetConfig("clients", rep.Clients)
		m.SetConfig("passages", rep.TargetPassages)
		m.SetConfig("dist", rep.Dist)
		m.SetConfig("alg", rep.Algorithm)
		m.SetConfig("model", rep.Model)
		m.SetConfig("w", rep.Width)
		m.SetConfig("slots", rep.Slots)
		m.SetConfig("rate", rep.Rate)
		m.SetConfig("seed", rep.Seed)
		m.AddCounters("", rep.Counters())
		m.Sample("wall_ms", float64(wall.Microseconds())/1000)
		m.Sample("passages_per_sec", float64(rep.Passages)/wall.Seconds())
		return []*perflog.Manifest{m}, nil
	})
}

// printReport renders the human-readable summary (deterministic).
func printReport(rep *service.Report) {
	fmt.Printf("lock service: %d locks, %d clients, %s arrivals, alg=%s model=%s w=%d seed=%d\n",
		rep.Locks, rep.Clients, rep.Dist, rep.Algorithm, rep.Model, rep.Width, rep.Seed)
	fmt.Printf("passages  %d completed / %d target (%d rounds, %d arrivals, %d pending)\n",
		rep.Passages, rep.TargetPassages, rep.Rounds, rep.Arrivals, rep.Pending)
	fmt.Printf("machine   %d steps, %.2f passages per 1M steps\n", rep.Steps, rep.PassagesPerMSteps)
	fmt.Printf("latency   min %d  p50 %d  p90 %d  p99 %d  max %d (steps)\n",
		rep.Latency.Min, rep.Latency.P50, rep.Latency.P90, rep.Latency.P99, rep.Latency.Max)
	fmt.Printf("fairness  %d clients served, passages/client min %d p50 %d p99 %d max %d, Jain %.4f\n",
		rep.Fairness.ClientsServed, rep.Fairness.Min, rep.Fairness.P50,
		rep.Fairness.P99, rep.Fairness.Max, rep.Fairness.JainIndex)
	fmt.Printf("rmr       total CC %d / DSM %d, per passage CC %.2f / DSM %.2f\n",
		rep.RMRCC, rep.RMRDSM, rep.RMRPerPassageCC, rep.RMRPerPassageDSM)

	// Hottest shards first; ties by shard id for a stable rendering.
	shards := append([]service.ShardStat(nil), rep.Shards...)
	sort.Slice(shards, func(i, j int) bool {
		if shards[i].Passages != shards[j].Passages {
			return shards[i].Passages > shards[j].Passages
		}
		return shards[i].Shard < shards[j].Shard
	})
	show := len(shards)
	if show > 8 {
		show = 8
	}
	fmt.Printf("shards    top %d of %d by passages:\n", show, len(shards))
	for _, s := range shards[:show] {
		fmt.Printf("  shard %3d  passages %8d  steps %10d  rmr cc/dsm %d/%d  pending %d\n",
			s.Shard, s.Passages, s.Steps, s.RMRCC, s.RMRDSM, s.Pending)
	}
	if len(rep.TopCells) > 0 {
		fmt.Printf("cells     top %d by attributed RMRs:\n", len(rep.TopCells))
		for _, c := range rep.TopCells {
			fmt.Printf("  %-24s steps %8d  rmr cc/dsm %d/%d\n", c.Label, c.Steps, c.RMRCC, c.RMRDSM)
		}
	}
}
