package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ecsort/internal/service"
)

// Service-level stress numbers: where the library harnesses measure
// comparisons and rounds in Valiant's model, this harness measures the
// classification service end to end — concurrent clients, sharded
// single-writer ingestion, batched compounding flushes — and reports
// wall-clock throughput. The shard sweep shows how ingestion scales as
// collections stop contending.

// ServiceSweepPoint is one shard-count configuration's measured
// throughput.
type ServiceSweepPoint struct {
	Shards int
	Report service.StressReport
}

// RunServiceSweep runs the same workload across several shard counts.
func RunServiceSweep(shardCounts []int, cfg service.StressConfig) ([]ServiceSweepPoint, error) {
	points := make([]ServiceSweepPoint, 0, len(shardCounts))
	for _, sc := range shardCounts {
		c := cfg
		c.Service.Shards = sc
		rep, err := service.RunStress(c)
		if err != nil {
			return nil, fmt.Errorf("harness: shards=%d: %w", sc, err)
		}
		points = append(points, ServiceSweepPoint{Shards: sc, Report: rep})
	}
	return points, nil
}

// RenderServiceSweep renders the sweep as an aligned table.
func RenderServiceSweep(w io.Writer, points []ServiceSweepPoint) error {
	if len(points) == 0 {
		return nil
	}
	cfg := points[0].Report.Config
	fmt.Fprintf(w, "service ingestion sweep: %d collections × %d elements (%d classes), batch %d, %d writers\n",
		cfg.Collections, cfg.Elements, cfg.Classes, cfg.Batch, cfg.Writers)
	fmt.Fprintf(w, "%8s %6s %12s %12s %14s %12s %12s %9s\n",
		"shards", "batch", "elements/s", "batches/s", "comparisons", "rounds", "pairs/chunk", "verified")
	for _, p := range points {
		r := p.Report
		if _, err := fmt.Fprintf(w, "%8d %6s %12.0f %12.0f %14d %12d %12s %9v\n",
			p.Shards, batchMode(r), r.ElementsPerSec, r.BatchesPerSec, r.Comparisons, r.Rounds,
			pairsPerChunk(r), r.Verified); err != nil {
			return err
		}
	}
	return nil
}

// batchMode labels a report's oracle dispatch: "on" when worker-pool
// chunks were answered whole through the batch interface, "off" for
// per-pair dispatch (Service.DisableBatchOracle).
func batchMode(r service.StressReport) string {
	if r.Config.Service.DisableBatchOracle {
		return "off"
	}
	return "on"
}

// pairsPerChunk formats the batch amortization factor — equivalence
// tests per whole-chunk oracle invocation — or "-" when no batch
// invocation happened.
func pairsPerChunk(r service.StressReport) string {
	if r.BatchRounds == 0 {
		return "-"
	}
	return strconv.FormatFloat(float64(r.BatchPairs)/float64(r.BatchRounds), 'f', 1, 64)
}

// WriteServiceSweepCSV writes the sweep's raw observations.
func WriteServiceSweepCSV(w io.Writer, points []ServiceSweepPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"shards", "collections", "elements_per_collection", "classes", "batch", "writers",
		"elapsed_seconds", "elements", "batches", "flushes",
		"elements_per_sec", "batches_per_sec", "comparisons", "rounds",
		"batch_oracle", "batch_rounds", "batch_pairs", "batch_pairs_per_round", "verified",
	}); err != nil {
		return err
	}
	for _, p := range points {
		r := p.Report
		cfg := r.Config
		amortized := "0"
		if r.BatchRounds > 0 {
			amortized = strconv.FormatFloat(float64(r.BatchPairs)/float64(r.BatchRounds), 'f', 2, 64)
		}
		if err := cw.Write([]string{
			strconv.Itoa(p.Shards),
			strconv.Itoa(cfg.Collections),
			strconv.Itoa(cfg.Elements),
			strconv.Itoa(cfg.Classes),
			strconv.Itoa(cfg.Batch),
			strconv.Itoa(cfg.Writers),
			strconv.FormatFloat(r.Elapsed.Seconds(), 'f', 6, 64),
			strconv.FormatInt(r.Elements, 10),
			strconv.FormatInt(r.Batches, 10),
			strconv.FormatInt(r.Flushes, 10),
			strconv.FormatFloat(r.ElementsPerSec, 'f', 1, 64),
			strconv.FormatFloat(r.BatchesPerSec, 'f', 1, 64),
			strconv.FormatInt(r.Comparisons, 10),
			strconv.FormatInt(r.Rounds, 10),
			strconv.FormatBool(!cfg.Service.DisableBatchOracle),
			strconv.FormatInt(r.BatchRounds, 10),
			strconv.FormatInt(r.BatchPairs, 10),
			amortized,
			strconv.FormatBool(r.Verified),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
