package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/trace"
)

// TestTelemetryGolden holds every analysis' published metrics to committed
// snapshots. It replays lusearch6 and sccmesh metered under each of five
// analyses and compares the deterministic snapshot byte for byte with
// testdata/telemetry/<trace>.<analysis>.json. Between them the two traces
// move every counter each analysis exports, so a counter published from the
// wrong quantity fails here. Set REGEN_TELEMETRY=1 to rewrite the files.
func TestTelemetryGolden(t *testing.T) {
	regen := os.Getenv("REGEN_TELEMETRY") != ""
	dir := filepath.Join("..", "..", "testdata", "telemetry")
	for _, name := range []string{"lusearch6", "sccmesh"} {
		d, err := trace.ReadFile(filepath.Join("..", "..", "testdata", "traces", name+".dct"))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []Analysis{DCSingle, DCFirst, PCDOnly, Velodrome, VelodromeUnsound} {
			t.Run(name+"/"+a.String(), func(t *testing.T) {
				res, err := RunTrace(context.Background(), d, Config{Analysis: a, Meter: cost.NewMeter(cost.Default())})
				if err != nil {
					t.Fatal(err)
				}
				got := res.Telemetry.Deterministic().JSON()
				path := filepath.Join(dir, name+"."+a.String()+".json")
				if regen {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (set REGEN_TELEMETRY=1 to write it)", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s differs from the replay's snapshot:\n%s", path, got)
				}
			})
		}
	}
}
