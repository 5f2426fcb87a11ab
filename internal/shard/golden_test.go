package shard

// Large-topology golden test: a ~1k-node hierarchical network under static
// routes, run at 1, 2 and 4 shards. All three runs must reproduce the
// committed merged trace and report byte for byte and keep the composed
// conservation ledger balanced — the acceptance bar for the conservative-
// sync runner.
//
// Refresh after an intentional model change with:
//
//	go test ./internal/shard -run TestGoldenLargeTopology -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace file")

// goldenConfig is the committed 1k-node scenario: 32 regions of 32 nodes,
// light uniform traffic, static routes.
func goldenConfig(shards int) Config {
	return Config{
		Graph:         topology.Hierarchical(32, 32, 20260807),
		Shards:        shards,
		Seed:          4242,
		PktRate:       1.0,
		Dests:         3,
		MeasurePeriod: 5 * sim.Second,
		MeasureSample: 64,
		TraceDrops:    true,
	}
}

func TestGoldenLargeTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node golden run skipped in -short mode")
	}
	const until = 12 * sim.Second
	path := filepath.Join("testdata", "hier1k.golden")

	render := func(s *Sim) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "# hier1k: 1024 nodes, trace+report, identical for any shard count\n")
		b.WriteString(s.Report().String())
		b.WriteString("--- trace ---\n")
		b.WriteString(s.TraceText())
		return b.Bytes()
	}

	var first []byte
	for _, shards := range []int{1, 2, 4} {
		s, err := New(goldenConfig(shards))
		if err != nil {
			t.Fatalf("shards=%d: New: %v", shards, err)
		}
		if shards > 1 {
			if la := s.Lookahead(); la < sim.FromSeconds(0.008) {
				t.Fatalf("shards=%d: lookahead %v, want >= 8ms backbone floor", shards, la)
			}
		}
		s.Run(until)
		if err := s.Audit(); err != nil {
			t.Fatalf("shards=%d: audit: %v", shards, err)
		}
		got := render(s)
		if first == nil {
			first = got
			r := s.Report()
			if r.Conservation.Delivered == 0 {
				t.Fatalf("golden scenario inert: %+v", r)
			}
			continue
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("shards=%d: output diverged from the single-kernel run:\n%s",
				shards, firstDiff(string(got), string(first)))
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, first, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s (%d bytes)", path, len(first))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("output diverged from the committed golden:\n%s",
			firstDiff(string(first), string(want)))
	}
}

// The golden trace must contain every record class the scenario exercises.
func TestGoldenCoversRecordKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the large golden")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "hier1k.golden"))
	if err != nil {
		t.Skipf("golden not present: %v", err)
	}
	text := string(raw)
	for _, kind := range []string{"meas", "drop-buffer"} {
		if !strings.Contains(text, " "+kind+" ") {
			t.Errorf("golden trace contains no %q records", kind)
		}
	}
}
