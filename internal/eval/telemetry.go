package eval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/telemetry"
)

// TelemetryBenchmark is one benchmark's pipeline telemetry under single-run
// mode: the full deterministic snapshot, ready for machine consumption.
type TelemetryBenchmark struct {
	Name     string              `json:"benchmark"`
	Analysis string              `json:"analysis"`
	Seed     int64               `json:"seed"`
	Snapshot *telemetry.Snapshot `json:"telemetry"`
}

// TelemetryData is the machine-readable telemetry dump written by
// `dcbench -experiment telemetry` (BENCH_telemetry.json). Everything in it
// is deterministic for a given scale and benchmark set: snapshots are
// Deterministic() (span wall times stripped), and JSON marshals maps with
// sorted keys, so regenerating the file yields byte-identical output.
type TelemetryData struct {
	Scale      float64              `json:"scale"`
	Seed       int64                `json:"seed"`
	Benchmarks []TelemetryBenchmark `json:"benchmarks"`
}

// telemetrySeed is the fixed schedule seed for the telemetry experiment; one
// seed, so the dump stays cheap and reproducible.
const telemetrySeed = 1

// Telemetry runs every benchmark once under single-run mode (paper-style
// initial specification), metered like every Figure 7 run, and collects
// each run's telemetry snapshot: the Octet transition mix, IDG composition,
// SCC size distribution, PCD replay fraction, modelled cost, and the phase
// spans' cost units that back the paper's quantitative claims.
func (r *Runner) Telemetry() (*TelemetryData, error) {
	data := &TelemetryData{Scale: r.opts.Scale, Seed: telemetrySeed}
	for _, name := range r.opts.Benchmarks {
		_, initial, err := r.bench(name)
		if err != nil {
			return nil, err
		}
		res, err := r.run(name, core.DCSingle, initial, telemetrySeed, cost.NewMeter(cost.Default()), nil)
		if err != nil {
			return nil, err
		}
		data.Benchmarks = append(data.Benchmarks, TelemetryBenchmark{
			Name:     name,
			Analysis: "dc-single",
			Seed:     telemetrySeed,
			Snapshot: res.Telemetry.Deterministic(),
		})
	}
	return data, nil
}

// JSON renders the dump as stable, indented JSON with a trailing newline.
func (d *TelemetryData) JSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		panic("eval: telemetry encode: " + err.Error())
	}
	return buf.Bytes()
}

// RenderTelemetry prints a one-line-per-benchmark summary of the headline
// pipeline quantities; the full detail lives in the JSON dump.
func (d *TelemetryData) RenderTelemetry() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Telemetry (dc-single, scale %.2g, seed %d)\n", d.Scale, d.Seed)
	fmt.Fprintf(&b, "%-12s %12s %10s %8s %8s %10s\n",
		"benchmark", "octet-trans", "idg-edges", "sccs", "pcd-tx", "pcd-frac")
	for _, bm := range d.Benchmarks {
		s := bm.Snapshot
		octet := s.Counter(telemetry.OctetFastPath) + s.Counter(telemetry.OctetInitial) +
			s.Counter(telemetry.OctetUpgrading) + s.Counter(telemetry.OctetFence) +
			s.Counter(telemetry.OctetConflicting)
		edges := uint64(0)
		for name, v := range s.Counters {
			if strings.HasPrefix(name, "icd.idg.edges.") {
				edges += v
			}
		}
		fmt.Fprintf(&b, "%-12s %12d %10d %8d %8d %10.3f\n",
			bm.Name, octet, edges,
			s.Counter(telemetry.ICDSCCs), s.Counter(telemetry.PCDTxnsSent),
			s.Gauge(telemetry.PCDTxFraction))
	}
	return strings.TrimRight(b.String(), "\n")
}
