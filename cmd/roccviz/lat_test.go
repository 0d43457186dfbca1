package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/obs/prov"
	"rocc/internal/procs"
)

// latTestConfigs exercises the replay on a dense direct batch run,
// a tree topology (relay merge legs), and a faulty direct run with losses
// and injected duplicates.
func latTestConfigs() map[string]core.Config {
	base := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Nodes = 4
		cfg.AppProcs = 2
		cfg.SamplingPeriod = 5000
		cfg.Duration = 2e6
		cfg.Warmup = 0 // full paths in the trace: the replay is exact
		cfg.Seed = 21
		cfg.Policy = forward.BF
		cfg.BatchSize = 8
		return cfg
	}

	direct := base()

	tree := base()
	tree.Arch = core.MPP
	tree.Nodes = 8
	tree.Forwarding = forward.Tree

	chaos := base()
	chaos.Faults = &faults.Plan{Seed: 3, Loss: 0.1, Dup: 0.1, CrashMTBF: 1e6}

	return map[string]core.Config{"direct": direct, "tree": tree, "chaos": chaos}
}

// liveRun runs cfg with the trace sink and provenance attached and
// returns the live engine plus the exported Chrome trace.
func liveRun(t *testing.T, cfg core.Config) (*prov.Engine, *bytes.Buffer) {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(core.ObsOptions{Trace: true, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if m.Provenance().Delivered() == 0 {
		t.Fatal("no deliveries; nothing to replay")
	}
	var buf bytes.Buffer
	if err := c.Sink.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return m.Provenance(), &buf
}

// The -lat guarantee: replaying a warmup-free Chrome trace into a fresh
// engine reproduces the live engine of the same run exactly — every
// Stages() field (sums, shares, histogram quantiles) and every count,
// since JSON float64 round-trips exactly and the replay makes the live
// calls in the same order.
func TestLatReconstructionMatchesEngine(t *testing.T) {
	for name, cfg := range latTestConfigs() {
		t.Run(name, func(t *testing.T) {
			live, buf := liveRun(t, cfg)
			got, incomplete, err := replayLatency(buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Stages(), live.Stages()) {
				t.Errorf("stages differ:\nreplay %+v\nlive   %+v", got.Stages(), live.Stages())
			}
			counts := []struct {
				what      string
				got, want uint64
			}{
				{"generated", got.Generated(), live.Generated()},
				{"delivered", got.Delivered(), live.Delivered()},
				{"duplicate deliveries", got.DupDelivered(), live.DupDelivered()},
				{"dropped", got.Dropped(), live.Dropped()},
				{"lost", got.LostTotal(), live.LostTotal()},
				{"lost to crashes", got.Lost(procs.LossCrash), live.Lost(procs.LossCrash)},
				{"lost on links", got.Lost(procs.LossLink), live.Lost(procs.LossLink)},
			}
			for _, c := range counts {
				if c.got != c.want {
					t.Errorf("%s: replay %d, live %d", c.what, c.got, c.want)
				}
			}
			if incomplete != 0 {
				t.Errorf("%d incomplete paths in a warmup-free trace", incomplete)
			}
			if name == "tree" && got.Stages()[prov.StageMerge].SumUS <= 0 {
				t.Error("tree run replayed no merge dwell")
			}
			if name == "chaos" && (got.DupDelivered() == 0 || got.LostTotal() == 0) {
				t.Errorf("chaos run delivered dup=%d lost=%d; faults not exercised", got.DupDelivered(), got.LostTotal())
			}
		})
	}
}

// A trace recorded with a warmup starts mid-flight: deliveries whose
// generation was cut off count as incomplete, and everything generated
// inside the trace still decomposes exactly.
func TestLatReplayWarmupTruncated(t *testing.T) {
	cfg := latTestConfigs()["direct"]
	cfg.Warmup = 1e6
	live, buf := liveRun(t, cfg)
	got, incomplete, err := replayLatency(buf)
	if err != nil {
		t.Fatal(err)
	}
	if incomplete == 0 {
		t.Fatal("no incomplete paths in a warmup-truncated trace")
	}
	if got.Delivered() == 0 {
		t.Fatal("nothing decomposed after the warmup cut")
	}
	// The live engine keeps warmup records in flight, so it decomposes
	// the truncated paths too.
	if sum := got.Delivered() + uint64(incomplete); sum != live.Delivered() {
		t.Errorf("replay delivered %d + incomplete %d != live delivered %d", got.Delivered(), incomplete, live.Delivered())
	}
	if e := got.MaxCloseErrUS(); e > 1e-6 {
		t.Errorf("per-sample closure error %v us", e)
	}
	share := 0.0
	for _, st := range got.Stages() {
		share += st.SharePct
	}
	if math.Abs(share-100) > 1e-6 {
		t.Errorf("shares sum to %v%%", share)
	}
}

func TestRunLatErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, c := range []struct{ name, body, want string }{
		{"garbage.json", "not json", "not a trace-event JSON array"},
		{"nodeliveries.json", `[{"name":"cpu 0","ph":"M","pid":1000,"tid":0}]`, "no decomposable delivered samples"},
	} {
		err := runLat(write(c.name, c.body))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	if err := runLat(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseFlowID(t *testing.T) {
	if k, ok := parseFlowID("n3.p1.s42"); !ok || k != (latKey{3, 1, 42}) {
		t.Fatalf("parseFlowID: got %+v ok=%v", k, ok)
	}
	if _, ok := parseFlowID("bogus"); ok {
		t.Fatal("parseFlowID accepted garbage")
	}
}
