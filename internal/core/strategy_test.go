package core

import (
	"reflect"
	"testing"

	"rocc/internal/des"
	"rocc/internal/forward"
)

// shimShapes are the scenario shapes of the deprecation-shim contract:
// the operating points of the table4/fig16 factorial family, the fig19
// batch sweep, and the MPP tree configurations.
func shimShapes() []Config {
	base := DefaultConfig()
	base.Duration = 0.5e6

	now8cf := base
	now8cf.Policy = forward.CF

	now8bf16 := base
	now8bf16.Policy = forward.BF
	now8bf16.BatchSize = 16
	now8bf16.SamplingPeriod = 8000

	now4bf2 := base
	now4bf2.Nodes = 4
	now4bf2.Policy = forward.BF
	now4bf2.BatchSize = 2
	now4bf2.Warmup = 0.1e6

	now1bf128 := base
	now1bf128.Nodes = 1
	now1bf128.AppProcs = 8
	now1bf128.Policy = forward.BF
	now1bf128.BatchSize = 128
	now1bf128.SamplingPeriod = 1000

	smp16 := base
	smp16.Arch = SMP
	smp16.Nodes = 16
	smp16.AppProcs = 16
	smp16.Pds = 2
	smp16.Policy = forward.BF
	smp16.BatchSize = 32
	smp16.SamplingPeriod = 8000

	mpp8tree := base
	mpp8tree.Arch = MPP
	mpp8tree.Policy = forward.BF
	mpp8tree.BatchSize = 8
	mpp8tree.Forwarding = forward.Tree
	mpp8tree.SamplingPeriod = 20000

	return []Config{now8cf, now8bf16, now4bf2, now1bf128, smp16, mpp8tree}
}

// The deprecation shim: a legacy Config{Policy, BatchSize} and the same
// Config with the mapped Strategy installed explicitly must produce
// byte-identical Results on every scenario shape.
func TestLegacyPolicyEqualsExplicitStrategy(t *testing.T) {
	for _, cfg := range shimShapes() {
		legacy, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		explicit := cfg
		explicit.Strategy = forward.FromPolicy(cfg.Policy, cfg.BatchSize)
		mapped, err := New(explicit)
		if err != nil {
			t.Fatal(err)
		}
		a, b := legacy.Run(), mapped.Run()
		// The Cfg snapshots differ (one carries the Strategy field); the
		// metrics must not.
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s %s batch %d: legacy and explicit-strategy results differ\nlegacy:   %+v\nstrategy: %+v",
				cfg.Arch, cfg.Policy, cfg.BatchSize, a, b)
		}
	}
}

// Validate keeps the legacy Policy/BatchSize fields coherent with an
// installed Strategy, so downstream consumers (scenario serialization,
// result labeling) see the truth through either surface.
func TestValidateSyncsLegacyFieldsFromStrategy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 1e5
	cfg.Strategy = forward.NewFixedBF(9)
	v, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.Policy != forward.BF || v.BatchSize != 9 {
		t.Fatalf("bf:9 strategy synced to %v/%d", v.Policy, v.BatchSize)
	}
	cfg.Strategy = forward.NewCF()
	if v, err = cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.Policy != forward.CF || v.BatchSize != 1 {
		t.Fatalf("cf strategy synced to %v/%d", v.Policy, v.BatchSize)
	}
	cfg.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	if v, err = cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.Policy != forward.BF {
		t.Fatalf("abf strategy synced to %v", v.Policy)
	}
}

// An invalid adaptive controller configuration surfaces from Validate,
// before any run starts.
func TestValidateRejectsInvalidController(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 1e5
	cfg.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{MinBatch: 9, MaxBatch: 3})
	if _, err := cfg.Validate(); err == nil {
		t.Fatal("invalid controller config passed Validate")
	}
}

// adaptiveOverloadConfig is a node-saturating operating point: dense
// sampling from several processes per node forces the controller off its
// seed target.
func adaptiveOverloadConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.AppProcs = 16 // per node: each daemon serves 16 heavily CPU-bound procs
	cfg.SamplingPeriod = 1000
	cfg.Duration = 2e6
	cfg.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	return cfg
}

// The adaptive controller is a deterministic function of the simulated
// clock: identical Results — including the controller telemetry — under
// both calendars and at any replication worker count.
func TestAdaptiveDeterministicAcrossCalendarsAndWorkers(t *testing.T) {
	base := adaptiveOverloadConfig()

	var ref Result
	for i, kind := range []des.CalendarKind{des.CalendarHeap, des.CalendarBucket} {
		cfg := base
		cfg.Calendar = kind
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if i == 0 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("calendar %v diverged from %v:\n%+v\n%+v",
				kind, des.CalendarHeap, ref, res)
		}
	}

	serial, err := RunReplicationsParallel(base, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunReplicationsParallel(base, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Results, pooled.Results) {
		t.Fatal("adaptive replications differ between worker counts")
	}
}

// Under sustained overload the controller surges off its seed (17 on the
// Table 2 costs) and reports its telemetry through the Result.
func TestAdaptiveSurgesUnderOverload(t *testing.T) {
	m, err := New(adaptiveOverloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.AdaptiveFinalBatchMean <= 17 {
		t.Fatalf("overload did not raise the batch target: final mean %v",
			res.AdaptiveFinalBatchMean)
	}
	if res.AdaptiveAdjustments == 0 {
		t.Fatal("overload recorded no control decisions")
	}
	if res.AdaptiveFinalBatchMax > 128 {
		t.Fatalf("target exceeded MaxBatch: %d", res.AdaptiveFinalBatchMax)
	}
	// A calm scenario, by contrast, rests at the seed with no adjustments.
	calm := DefaultConfig()
	calm.Duration = 2e6
	calm.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	mc, err := New(calm)
	if err != nil {
		t.Fatal(err)
	}
	rc := mc.Run()
	if rc.AdaptiveFinalBatchMean != 17 || rc.AdaptiveAdjustments != 0 {
		t.Fatalf("calm run moved off the seed: mean %v, %d adjustments",
			rc.AdaptiveFinalBatchMean, rc.AdaptiveAdjustments)
	}
}

// adaptiveTargets snapshots every daemon controller's current batch
// target and total adjustment count.
func adaptiveTargets(t *testing.T, m *Model) (targets []int, adjustments int) {
	t.Helper()
	for _, d := range m.Daemons {
		s, ok := d.Strategy.(*forward.AdaptiveBFStrategy)
		if !ok {
			t.Fatalf("daemon strategy is %T, want *forward.AdaptiveBFStrategy", d.Strategy)
		}
		targets = append(targets, s.Target())
		adjustments += len(s.Adjustments())
	}
	return targets, adjustments
}

// Convergence under a bursty sampling-period schedule: calm traffic rests
// at the seed, a dense burst surges the target up, and the return to the
// calm period decays it back to the seed — where it stays, with no
// further control activity (no oscillation). The schedule is applied by
// mutating the application processes' sampling period between simulation
// segments, which they re-read at every tick.
func TestAdaptiveConvergesUnderBurstySchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.AppProcs = 16 // per node: each daemon serves 16 pipes
	cfg.SamplingPeriod = 40000
	cfg.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	cfg.Duration = 1 // segments are driven manually below
	cfg, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()

	setSP := func(us float64) {
		for _, a := range m.Apps {
			a.SamplingPeriod = us
		}
	}

	// Calm phase: the controller must rest at the cost-model seed.
	m.Sim.Run(2e6)
	targets, adj := adaptiveTargets(t, m)
	for _, tgt := range targets {
		if tgt != 17 {
			t.Fatalf("calm phase target %d, want seed 17 (targets %v)", tgt, targets)
		}
	}
	if adj != 0 {
		t.Fatalf("calm phase recorded %d adjustments", adj)
	}

	// Burst: dense sampling from every process saturates the node CPUs.
	setSP(1000)
	m.Sim.Run(10e6)
	targets, _ = adaptiveTargets(t, m)
	surged := 0
	for _, tgt := range targets {
		if tgt > 17 {
			surged++
		}
	}
	if surged == 0 {
		t.Fatalf("burst did not raise any target: %v", targets)
	}

	// Back to the calm period: targets decay to the seed. The segment is
	// long because decay is deliberately slow — it is counted in forwarded
	// messages (3 halvings x CalmWindows x Window = 192 messages at ~9
	// messages/s per daemon), after the burst backlog drains and the
	// latency EWMA settles back to the floor.
	setSP(40000)
	m.Sim.Run(115e6)
	targets, adjAfterDecay := adaptiveTargets(t, m)
	for _, tgt := range targets {
		if tgt != 17 {
			t.Fatalf("post-burst target %d did not return to seed (targets %v)", tgt, targets)
		}
	}
	// ...and hold there: continued calm traffic produces no further
	// control decisions.
	m.Sim.Run(155e6)
	targets, adjFinal := adaptiveTargets(t, m)
	if adjFinal != adjAfterDecay {
		t.Fatalf("steady state oscillated: %d new adjustments", adjFinal-adjAfterDecay)
	}
	for _, tgt := range targets {
		if tgt != 17 {
			t.Fatalf("steady-state target %d, want 17", tgt)
		}
	}
}

// Legacy (nil-Strategy) runs must not report adaptive telemetry, keeping
// their JSON output byte-identical to the pre-redesign encoder.
func TestLegacyRunsOmitAdaptiveTelemetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 0.5e6
	cfg.Policy = forward.BF
	cfg.BatchSize = 16
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.AdaptiveFinalBatchMean != 0 || res.AdaptiveFinalBatchMin != 0 ||
		res.AdaptiveFinalBatchMax != 0 || res.AdaptiveAdjustments != 0 {
		t.Fatalf("legacy run reports adaptive telemetry: %+v", res)
	}
}
