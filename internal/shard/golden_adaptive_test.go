package shard

// Adaptive-plane golden test, mirroring golden_test.go: the same ~1k-node
// hierarchical network, but routed by the full adaptive plane (D-SPF metric,
// measurement-driven floods, per-node incremental SPF) instead of the static
// table, under backbone faults. Runs at 1, 2, 4 and 8 shards; all
// four must reproduce the committed merged trace — update originations and
// reroutes included — byte for byte.
//
// Refresh after an intentional model change with:
//
//	go test ./internal/shard -run TestGoldenAdaptiveLargeTopology -update

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
)

// goldenAdaptiveConfig is goldenConfig rerouted through the adaptive plane:
// same graph, seed and traffic, D-SPF metric, and a fault script. The
// measurement period is the node.MeasurementPeriod default (10 s), so within
// the 11 s horizon the staggered first measurement wave is mid-flood at the
// end of the run — pinning update packets in every state: queued,
// transmitting, crossing shard wires, and consumed.
func goldenAdaptiveConfig(t *testing.T, shards int) Config {
	t.Helper()
	cfg := goldenConfig(shards)
	cfg.Adaptive = true
	cfg.Metric = node.DSPF
	cfg.MeasurePeriod = 0 // default: node.MeasurementPeriod
	bb := backboneTrunks(cfg.Graph)
	if len(bb) < 6 {
		t.Fatal("golden graph has fewer than 6 backbone trunks")
	}
	// Six staggered backbone failures with two repairs: enough concurrent
	// outages that some transmitter is mid-packet at a fault instant (outage
	// drops), with reroutes on both the down and up edges.
	for i := 0; i < 6; i++ {
		cfg.Faults = append(cfg.Faults, Fault{Trunk: bb[i], At: 3*sim.Second + sim.Time(i)*500*sim.Millisecond})
	}
	cfg.Faults = append(cfg.Faults,
		Fault{Trunk: bb[0], At: 8 * sim.Second, Up: true},
		Fault{Trunk: bb[1], At: 9 * sim.Second, Up: true},
	)
	return cfg
}

func TestGoldenAdaptiveLargeTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node golden run skipped in -short mode")
	}
	const until = 11 * sim.Second
	path := filepath.Join("testdata", "hier1k_adaptive.golden")

	render := func(s *Sim) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "# hier1k adaptive: 1024 nodes, D-SPF + flooding, identical for any shard count\n")
		b.WriteString(s.Report().String())
		b.WriteString("--- trace ---\n")
		b.WriteString(s.TraceText())
		return b.Bytes()
	}

	var first []byte
	for _, shards := range []int{1, 2, 4, 8} {
		s, err := New(goldenAdaptiveConfig(t, shards))
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
			if r.Conservation.Delivered == 0 || r.OutageDrops == 0 {
				t.Fatalf("golden scenario inert: %+v", r)
			}
			if r.Originated == 0 || r.CtrlGenerated == 0 {
				t.Fatalf("adaptive golden flooded no updates: %+v", r)
			}
			continue
		}
		if shards == 8 {
			var ctrlExported int64
			for _, l := range s.Ledgers() {
				ctrlExported += l.CtrlExported
			}
			if ctrlExported == 0 {
				t.Fatal("shards=8: no routing update crossed a shard boundary")
			}
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

// The adaptive golden must pin every adaptive record class — originations,
// reroutes, fault transitions and outage drops at minimum — plus measurement
// lines from the sampled nodes.
func TestGoldenAdaptiveCoversRecordKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the large golden")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "hier1k_adaptive.golden"))
	if err != nil {
		t.Skipf("golden not present: %v", err)
	}
	text := string(raw)
	for _, kind := range []string{"link-down", "link-up", "meas", "drop-outage", "originate", "reroute"} {
		if !strings.Contains(text, " "+kind+" ") {
			t.Errorf("golden trace contains no %q records", kind)
		}
	}
	if !strings.Contains(text, "\n  Updates from t = 0") || strings.Contains(text, " originated=0 ") {
		t.Error("golden report carries no control-plane line with originations")
	}
}
