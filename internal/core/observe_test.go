package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"

	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/obs"
	"rocc/internal/obs/live"
	"rocc/internal/obs/prov"
	"rocc/internal/resources"
	"rocc/internal/trace"
)

func obsTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Duration = 2e6
	cfg.Seed = 7
	return cfg
}

// The acceptance criterion of the observability layer: a traced run
// exported as internal/trace records must, after rocctrace-style
// analysis, reproduce the run's own Result utilization per class within
// 1%. The sink records every CPU, so the trace is the Result's
// accounting seen through the other pipeline.
func TestTraceRecordsMatchResultWithinOnePercent(t *testing.T) {
	cfg := obsTestConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()

	recs := c.Sink.TraceRecords()
	if len(recs) == 0 {
		t.Fatal("no occupancy records captured")
	}
	an, err := trace.Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}

	// Per-class CPU totals from the trace vs the Result's utilization,
	// both normalized to percent of total node-CPU capacity.
	capacityUS := float64(cfg.Nodes) * cfg.Duration
	check := func(class string, wantPct float64) {
		t.Helper()
		tot, _ := an.TotalsFor(class)
		gotPct := tot.CPUTimeUS / capacityUS * 100
		if diff := math.Abs(gotPct - wantPct); diff > wantPct*0.01+1e-9 {
			t.Errorf("%s CPU: trace %.4f%%, Result %.4f%% (diff > 1%%)", class, gotPct, wantPct)
		}
	}
	check(trace.ProcApplication, res.AppCPUUtilPct)
	check(trace.ProcPd, res.PdCPUUtilPct)
	check(trace.ProcPvmd, res.PvmCPUUtilPct)
	check(trace.ProcOther, res.OtherCPUUtilPct)
	// Main runs on NodeCPUs[0] here (no dedicated host), so its trace
	// total normalizes against a single CPU.
	mainTot, _ := an.TotalsFor(trace.ProcParadyn)
	gotMain := mainTot.CPUTimeUS / cfg.Duration * 100
	if diff := math.Abs(gotMain - res.MainCPUUtilPct); diff > res.MainCPUUtilPct*0.01+1e-9 {
		t.Errorf("main CPU: trace %.4f%%, Result %.4f%%", gotMain, res.MainCPUUtilPct)
	}
	// Network, same 1% band.
	var netUS float64
	for _, tot := range an.Totals {
		netUS += tot.NetTimeUS
	}
	gotNet := netUS / cfg.Duration * 100
	if diff := math.Abs(gotNet - res.NetUtilPct); diff > res.NetUtilPct*0.01+1e-9 {
		t.Errorf("network: trace %.4f%%, Result %.4f%%", gotNet, res.NetUtilPct)
	}
}

// The Chrome export of a real run must satisfy its own validator (the CI
// smoke step's check).
func TestChromeExportOfRunValidates(t *testing.T) {
	m, err := New(obsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	var buf bytes.Buffer
	if err := c.Sink.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1000 {
		t.Fatalf("suspiciously small trace: %d events", n)
	}
}

// Attaching the full observability layer must not perturb the simulation:
// samplers and observers only read state, so the Result (ignoring the
// observability-only quantile fields) is identical to an unobserved run.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Warmup = 2e5

	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := plain.Run()

	observed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := observed.EnableObservability(ObsOptions{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	got := observed.Run()

	// Blank the fields only the observed run can fill, then demand
	// exact equality.
	got.MonitoringLatencyP50Sec = 0
	got.MonitoringLatencyP99Sec = 0
	if !reflect.DeepEqual(got, base) {
		t.Errorf("observability changed the Result:\nbase: %+v\ngot:  %+v", base, got)
	}
	if c.Metrics.Generated.Value() == 0 || c.Metrics.Delivered.Value() == 0 {
		t.Error("metrics half recorded nothing")
	}
	if len(c.Metrics.Series()) == 0 {
		t.Error("no sampler series registered")
	}
	for _, s := range c.Metrics.Series() {
		if len(s.T) == 0 {
			t.Errorf("series %s is empty", s.Name)
		}
	}
}

// Metrics counters agree with the model's own accounting, and the
// quantile Result fields are populated and ordered.
func TestMetricsAgreeWithResult(t *testing.T) {
	m, err := New(obsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	mt := c.Metrics
	if got := int(mt.Generated.Value()); got != res.SamplesGenerated {
		t.Errorf("generated counter %d, Result %d", got, res.SamplesGenerated)
	}
	if got := int(mt.Delivered.Value()); got != res.SamplesReceived {
		t.Errorf("delivered counter %d, Result %d", got, res.SamplesReceived)
	}
	if got := int(mt.DeliveredMsgs.Value()); got != res.MessagesReceived {
		t.Errorf("messages counter %d, Result %d", got, res.MessagesReceived)
	}
	if got := int(mt.Forwards.Value()); got != res.MessagesForwarded {
		t.Errorf("forwards counter %d, Result %d", got, res.MessagesForwarded)
	}
	if res.MonitoringLatencyP50Sec <= 0 || res.MonitoringLatencyP99Sec < res.MonitoringLatencyP50Sec {
		t.Errorf("quantiles not populated/ordered: p50=%v p99=%v",
			res.MonitoringLatencyP50Sec, res.MonitoringLatencyP99Sec)
	}
	if res.MonitoringLatencyMaxSec < res.MonitoringLatencyP99Sec {
		t.Errorf("p99 %v exceeds observed max %v", res.MonitoringLatencyP99Sec, res.MonitoringLatencyMaxSec)
	}
}

// Warmup removal applies to the observability layer like everything else:
// sample events recorded before the warmup boundary are discarded.
func TestObservabilityWarmupReset(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Warmup = 5e5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if got := int(c.Metrics.Generated.Value()); got != res.SamplesGenerated {
		t.Errorf("post-warmup generated counter %d, Result %d", got, res.SamplesGenerated)
	}
	for _, r := range c.Sink.TraceRecords() {
		if r.StartUS+r.DurationUS <= cfg.Warmup {
			t.Fatalf("span entirely inside warmup survived reset: %+v", r)
		}
	}
}

// eventsInterval is a sampler period no model timer shares, so each
// sampler tick is the last event dispatched at its time.
const eventsInterval = 12345.678

// eventsModel is a metrics-only model sampled every eventsInterval.
func eventsModel(t *testing.T, cfg Config) (*Model, *obs.Counter) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Metrics: true, SampleIntervalUS: eventsInterval})
	if err != nil {
		t.Fatal(err)
	}
	return m, &c.Metrics.Events
}

// The events metric is the engine's dispatch count since the warmup
// reset, published at every sampler tick: exact at a tick, behind the
// engine between ticks, and exact after Model.Run with or without a
// warmup (whose dispatches come from a twin stopped at the boundary).
func TestEventsMetricCountsDispatchesSinceReset(t *testing.T) {
	m, events := eventsModel(t, obsTestConfig())
	m.Start()
	var base uint64
	for k, tick := 1, eventsInterval; k <= 20; k, tick = k+1, tick+eventsInterval {
		m.Sim.Run(tick - eventsInterval/2)
		if got := events.Value(); got >= m.Sim.Dispatched-base {
			t.Fatalf("before tick %d: events %d, want below %d", k, got, m.Sim.Dispatched-base)
		}
		m.Sim.Run(tick)
		if got, want := events.Value(), m.Sim.Dispatched-base; got != want {
			t.Fatalf("tick %d: events %d, want %d dispatched since the reset", k, got, want)
		}
		if k == 8 {
			m.resetAccounting()
			base = m.Sim.Dispatched
		}
	}

	for _, warmup := range []float64{0, 5e5} {
		cfg := obsTestConfig()
		cfg.Warmup = warmup
		var base uint64
		if warmup > 0 {
			twin, _ := eventsModel(t, cfg)
			twin.Start()
			twin.Sim.Run(warmup)
			base = twin.Sim.Dispatched
		}
		m, events := eventsModel(t, cfg)
		m.Run()
		if got, want := events.Value(), m.Sim.Dispatched-base; got != want {
			t.Errorf("warmup %v: events %d after Run, want %d", warmup, got, want)
		}
	}
}

// Guard rails: double-enable and empty options are errors; the retransmit
// observer wires through a fault plan.
func TestEnableObservabilityErrors(t *testing.T) {
	m, err := New(obsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableObservability(ObsOptions{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := m.EnableObservability(ObsOptions{Trace: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableObservability(ObsOptions{Trace: true}); err == nil {
		t.Error("double enable accepted")
	}
}

// Every lifecycle observer is attached: a faulty run with retransmissions
// reports them through the collector too.
func TestObservabilityCoversFaultLayer(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Faults = &faults.Plan{
		Seed:       11,
		Loss:       0.2,
		CrashMTBF:  3e5,
		Resilience: faults.Resilience{Retransmit: true},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Retransmits == 0 {
		t.Skip("plan injected no retransmissions at this seed")
	}
	if got := int(c.Metrics.Retransmits.Value()); got != res.Retransmits {
		t.Errorf("retransmit counter %d, Result %d", got, res.Retransmits)
	}
	if got := int(c.Metrics.Crashes.Value()); got != res.Crashes {
		t.Errorf("crash counter %d, Result %d", got, res.Crashes)
	}
}

// traceOneNode runs a one-node model with the trace sink attached — the
// paper's Figure 29 setup: one application node plus the dedicated host
// running the main process — and returns its AIX-like records.
func traceOneNode(t *testing.T, cfg Config, before func(*Model)) ([]trace.Record, Result) {
	t.Helper()
	cfg.Nodes = 1
	cfg.DedicatedHost = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if before != nil {
		before(m)
	}
	res := m.Run()
	return c.Sink.TraceRecords(), res
}

// On one node with a dedicated host, the sink's per-class CPU totals —
// main on the host included — equal the Result accounting exactly (same
// events, two views), and CPU records are per scheduler dispatch, never
// longer than the quantum, exactly as a kernel tracer would see them.
func TestSinkTraceOneNodeMatchesResultExactly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 20e6
	recs, res := traceOneNode(t, cfg, nil)
	if len(recs) == 0 {
		t.Fatal("no records captured")
	}
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if i > 0 && r.StartUS < recs[i-1].StartUS {
			t.Fatal("records not sorted")
		}
		if r.Resource == trace.CPU && r.DurationUS > cfg.Quantum+1e-9 {
			t.Fatalf("dispatch record longer than quantum: %v", r.DurationUS)
		}
	}
	an, err := trace.Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		class string
		want  float64
	}{
		{trace.ProcApplication, res.AppCPUTimePerNodeSec},
		{trace.ProcPd, res.PdCPUTimePerNodeSec},
		{trace.ProcParadyn, res.MainCPUTimeSec},
	} {
		tot, ok := an.TotalsFor(c.class)
		if !ok || math.Abs(tot.CPUTimeUS/1e6-c.want) > 1e-9 {
			t.Errorf("%s CPU: trace %+v, Result %v s", c.class, tot, c.want)
		}
	}
}

// Daemon requests (mean 267 us, far below the quantum) are rarely split,
// so the recorded per-record mean approximates the Table 2 parameter.
func TestSinkTracePdRequestStatistics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplingPeriod = 5000
	cfg.Duration = 50e6
	recs, _ := traceOneNode(t, cfg, nil)
	var sum float64
	n := 0
	for _, r := range recs {
		if r.Process == trace.ProcPd && r.Resource == trace.CPU {
			sum += r.DurationUS
			n++
		}
	}
	if n < 1000 {
		t.Fatalf("only %d pd records", n)
	}
	if mean := sum / float64(n); math.Abs(mean-267)/267 > 0.10 {
		t.Fatalf("recorded Pd CPU mean %v, want ~267", mean)
	}
}

// Owners outside the Table 1 classes still record, under their own name
// in the fallback PID block.
func TestSinkTraceUnknownOwnerLabel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 1e5
	cfg.Background = false
	recs, _ := traceOneNode(t, cfg, func(m *Model) {
		m.NodeCPUs[0].Submit("mystery", 500, nil)
	})
	for _, r := range recs {
		if r.Process == "mystery" && r.PID == 900 {
			return
		}
	}
	t.Fatal("unknown owner not recorded")
}

// digestConfigs are the seeded runs whose observability exports
// TestObservabilityOutputDigests pins: a warmed-up NOW batch run, an MPP
// tree (relay arrivals and merges), and a NOW chaos run that exercises
// every loss path, DropOldest evictions, retransmission and degradation.
func digestConfigs() []struct {
	name string
	cfg  Config
} {
	now := DefaultConfig()
	now.Nodes = 4
	now.SamplingPeriod = 8000
	now.Policy = forward.BF
	now.BatchSize = 16
	now.Warmup = 5e5
	now.Duration = 2e6
	now.Seed = 1

	tree := DefaultConfig()
	tree.Arch = MPP
	tree.Nodes = 16
	tree.Forwarding = forward.Tree
	tree.Policy = forward.CF
	tree.Duration = 1e6
	tree.Seed = 1

	chaos := DefaultConfig()
	chaos.Nodes = 8
	chaos.SamplingPeriod = 2000
	chaos.Policy = forward.BF
	chaos.BatchSize = 8
	chaos.Overflow = resources.DropOldest
	chaos.PipeCapacity = 16
	chaos.Duration = 2e6
	chaos.Seed = 3
	chaos.Faults = &faults.Plan{
		Seed: 4, Loss: 0.1, Dup: 0.05, AckLoss: 0.05,
		CrashMTBF: 6e5, SqueezeMTBF: 4e5,
		Resilience: faults.Resilience{
			Retransmit: true, RetryBudget: 2,
			Degrade: true, PipeWatermark: 0.25, RetryWatermark: 2,
		},
	}
	return []struct {
		name string
		cfg  Config
	}{{"now-bf16-warmup", now}, {"mpp16-tree-cf", tree}, {"now8-chaos", chaos}}
}

// TestObservabilityOutputDigests pins every observability export of
// three seeded runs byte for byte: the Chrome trace, the AIX-like text
// trace, the OpenMetrics exposition (run registry plus every stage
// histogram) and the provenance stage summaries. A refactor of the
// observer plumbing must leave every digest unchanged.
func TestObservabilityOutputDigests(t *testing.T) {
	// Each entry: Chrome JSON, text trace, OpenMetrics, stage summaries.
	want := map[string][4]string{
		"now-bf16-warmup": {
			"eb266fd3e6ce83d4369567d99f05dc8d00b1532aa20323fb26466b6d6125ec57",
			"887622e90fe3a8b693bfdd0d5498cf1fb4183c8b8ed29842a9c3df06fc16e7de",
			"cc9e66fbe63df311fca4ed00463ba8725abf3db43b2b250a96a674f23b47f51c",
			"caa8759144603636c7a9f09b25445d96e38b6682a327db68d0c44e6b836d9c96",
		},
		"mpp16-tree-cf": {
			"17fbbb6ce5b784e842fb455543ec751325150d0fed8bce9f10516ecd3525ad71",
			"79ea2a316c6f6a3227dbad2ff7ba4c0c704659e7db753c0c6cf5024087e16ecb",
			"00b23509c58d558ee4946327da72d8d3d32acf9e3e2e7adeb188c281fd2a2b86",
			"1a5d5b469c3ff1ef600997bafb0d36b33c1eaf8597a821827a39980c95e99b71",
		},
		"now8-chaos": {
			"d714b40fbe2a0015bf965bc8002b02d83bc3e7a994243ee569bee50a6b5ed09c",
			"8b837d567cf4bbe25a007e22e1af913edad7850a8e95e584731fd086261c39e9",
			"379137d6a9fa6a641d82bbcb4b5a74e99624483496c9868c42383d4cedc832c0",
			"6d8934b29691a0f17c447183c670190646a304039b71472274cec87c58b609c6",
		},
	}
	for _, tc := range digestConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := m.EnableObservability(ObsOptions{Trace: true, Metrics: true, Provenance: true})
			if err != nil {
				t.Fatal(err)
			}
			m.Run()
			digest := func(write func(io.Writer) error) string {
				h := sha256.New()
				if err := write(h); err != nil {
					t.Fatal(err)
				}
				return hex.EncodeToString(h.Sum(nil))
			}
			eng := m.Provenance()
			exp := live.NewExporter()
			exp.SetRun(c.Metrics)
			for st := prov.Stage(0); st < prov.NumStages; st++ {
				exp.AddHistogram(eng.Histogram(st), "per-sample dwell in stage "+st.String())
			}
			got := [4]string{
				digest(c.Sink.WriteChrome),
				digest(func(w io.Writer) error { return trace.WriteText(w, c.Sink.TraceRecords()) }),
				digest(exp.WriteOpenMetrics),
				digest(func(w io.Writer) error { return json.NewEncoder(w).Encode(eng.Stages()) }),
			}
			if eng.Delivered() == 0 {
				t.Fatal("no deliveries decomposed")
			}
			if got != want[tc.name] {
				t.Errorf("digests changed:\n got  %q\n want %q", got, want[tc.name])
			}
		})
	}
}
