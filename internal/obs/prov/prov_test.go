package prov

import (
	"math"
	"testing"

	"rocc/internal/procs"
	"rocc/internal/resources"
)

func sample(proc, seq int) resources.Sample {
	return resources.Sample{GenTime: 10, Node: 0, Proc: proc, Seq: seq}
}

// Short names for the event kinds the engine folds.
const (
	gen  = resources.EvSampleGenerated
	put  = resources.EvPipePut
	get  = resources.EvPipeGet
	drop = resources.EvPipeDropped
	fwd  = resources.EvMessageForwarded
	arr  = resources.EvMessageReceived
)

// ev is a sample event at time t.
func ev(kind resources.EventKind, t float64, s resources.Sample) resources.Event {
	return resources.Event{Kind: kind, T: t, Sample: s}
}

// msg is a daemon's forward or relay arrival of batch at depth hops.
func msg(kind resources.EventKind, t float64, batch []resources.Sample, hops int) resources.Event {
	return resources.Event{Kind: kind, T: t, Batch: batch, Hops: hops}
}

// delivered is the sample's receipt at the main process.
func delivered(t float64, s resources.Sample, latencyUS float64) resources.Event {
	return resources.Event{Kind: resources.EvSampleDelivered, T: t, Sample: s, Dur: latencyUS}
}

// lost is the sample leaving the system for reason.
func lost(t float64, s resources.Sample, reason procs.LossReason) resources.Event {
	return resources.Event{Kind: resources.EvSampleLost, T: t, Sample: s, N: int(reason)}
}

// Direct path with a blocked put and a two-sample batch: the decomposition
// must reproduce each boundary delta exactly and telescope to the
// measured latency.
func TestExactDecompositionDirectPath(t *testing.T) {
	e := NewEngine()
	a, b := sample(0, 1), sample(1, 1)
	b.GenTime = 14

	e.Observe(ev(gen, 10, a))
	e.Observe(ev(put, 12, a)) // blocked for 2us
	e.Observe(ev(gen, 14, b))
	e.Observe(ev(put, 14, b))
	e.Observe(ev(get, 30, a))
	e.Observe(ev(get, 30, b))
	batch := []resources.Sample{a, b}
	e.Observe(msg(fwd, 35, batch, 1))
	e.Observe(delivered(50, a, 40))
	e.Observe(delivered(50, b, 36))

	// Sample a: pipe-wait (12-10)+(30-14)=18, batch-residency 14-12=2,
	// daemon-service 35-30=5, network 50-35=15.
	// Sample b: pipe-wait (14-14)+(30-14)=16, batch-residency 0,
	// daemon-service 5, network 15.
	want := map[Stage]float64{
		StagePipeWait:       18 + 16,
		StageBatchResidency: 2 + 0,
		StageDaemonService:  5 + 5,
		StageNetworkTransit: 15 + 15,
		StageMerge:          0,
		StageMainReceipt:    0,
	}
	for st, w := range want {
		if got := e.Stages()[st].SumUS; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s sum = %v, want %v", st, got, w)
		}
	}
	if e.MaxCloseErrUS() > 1e-9 {
		t.Errorf("closure error %v", e.MaxCloseErrUS())
	}
	if e.StageSumUS() != e.LatencySumUS() || e.LatencySumUS() != 76 {
		t.Errorf("stage total %v, latency total %v, want both 76", e.StageSumUS(), e.LatencySumUS())
	}
	if e.InFlight() != 0 || e.Delivered() != 2 {
		t.Errorf("in-flight %d delivered %d", e.InFlight(), e.Delivered())
	}
}

// Tree path: forward, relay arrival, relay re-forward, delivery. Network
// legs and the merge dwell accumulate separately.
func TestTreePathMergeLeg(t *testing.T) {
	e := NewEngine()
	a := sample(0, 1)
	e.Observe(ev(gen, 10, a))
	e.Observe(ev(put, 10, a))
	e.Observe(ev(get, 30, a))
	batch := []resources.Sample{a}
	e.Observe(msg(fwd, 35, batch, 1))
	e.Observe(msg(arr, 40, batch, 1)) // leg 1: 5us
	e.Observe(msg(fwd, 44, batch, 2)) // merge: 4us
	e.Observe(delivered(50, a, 40))   // leg 2: 6us

	ss := e.Stages()
	if got := ss[StageNetworkTransit].SumUS; got != 11 {
		t.Errorf("network %v, want 11", got)
	}
	if got := ss[StageMerge].SumUS; got != 4 {
		t.Errorf("merge %v, want 4", got)
	}
	if e.MaxCloseErrUS() > 1e-9 {
		t.Errorf("closure error %v", e.MaxCloseErrUS())
	}
}

// Injected duplicate copies share the sample's identity. The hop guard
// must keep a duplicate arrival (same depth, already off the network)
// and a duplicate delivery from corrupting the decomposition.
func TestDuplicateCopiesDoNotCorrupt(t *testing.T) {
	e := NewEngine()
	a := sample(0, 1)
	e.Observe(ev(gen, 10, a))
	e.Observe(ev(put, 10, a))
	e.Observe(ev(get, 30, a))
	batch := []resources.Sample{a}
	e.Observe(msg(fwd, 35, batch, 1))
	e.Observe(delivered(50, a, 40)) // original closes the record
	e.Observe(delivered(55, a, 45)) // duplicate copy arrives later
	e.Observe(lost(60, a, procs.LossCrash))

	if e.Delivered() != 1 || e.DupDelivered() != 1 || e.DupLost() != 1 {
		t.Fatalf("delivered %d dup %d duplost %d", e.Delivered(), e.DupDelivered(), e.DupLost())
	}
	if e.LatencySumUS() != 40 || e.DupLatencySumUS() != 45 {
		t.Fatalf("latency sums %v/%v", e.LatencySumUS(), e.DupLatencySumUS())
	}
	if e.MaxCloseErrUS() > 1e-9 {
		t.Fatalf("closure error %v", e.MaxCloseErrUS())
	}
}

// A duplicate still in flight: the guard rejects an arrival at the wrong
// depth and a stale re-forward, so legs never double-count.
func TestHopGuardRejectsStaleCopies(t *testing.T) {
	e := NewEngine()
	a := sample(0, 1)
	e.Observe(ev(gen, 10, a))
	e.Observe(ev(put, 10, a))
	e.Observe(ev(get, 30, a))
	batch := []resources.Sample{a}
	e.Observe(msg(fwd, 35, batch, 1))
	e.Observe(msg(arr, 40, batch, 1))
	e.Observe(msg(arr, 42, batch, 1)) // dup arrival at same depth: ignored
	e.Observe(msg(fwd, 44, batch, 2)) // merge 4us
	e.Observe(msg(fwd, 46, batch, 2)) // dup re-forward: ignored
	e.Observe(delivered(50, a, 40))

	ss := e.Stages()
	if got := ss[StageMerge].SumUS; got != 4 {
		t.Errorf("merge %v, want 4 (stale re-forward must be ignored)", got)
	}
	if got := ss[StageNetworkTransit].SumUS; got != 11 {
		t.Errorf("network %v, want 11", got)
	}
	if e.MaxCloseErrUS() > 1e-9 {
		t.Errorf("closure error %v", e.MaxCloseErrUS())
	}
}

// Losses and drops close records without stage observations, by reason.
func TestLossAndDropAccounting(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 4; i++ {
		s := sample(0, i)
		e.Observe(ev(gen, 10, s))
		e.Observe(ev(put, 10, s))
	}
	e.Observe(lost(20, sample(0, 0), procs.LossThinned))
	e.Observe(lost(21, sample(0, 1), procs.LossCrash))
	e.Observe(ev(drop, 22, sample(0, 2)))
	if e.Lost(procs.LossThinned) != 1 || e.Lost(procs.LossCrash) != 1 || e.Dropped() != 1 {
		t.Fatalf("loss accounting: thinned %d crash %d dropped %d",
			e.Lost(procs.LossThinned), e.Lost(procs.LossCrash), e.Dropped())
	}
	if e.LostTotal() != 2 || e.InFlight() != 1 {
		t.Fatalf("total %d in-flight %d", e.LostTotal(), e.InFlight())
	}
	if e.Stages()[StagePipeWait].SumUS != 0 {
		t.Fatal("lost samples must not observe stages")
	}
}

// Closed records recycle through the pool: after a warm-up pass the
// steady-state in-flight population reuses records instead of
// allocating.
func TestRecordPoolRecycles(t *testing.T) {
	e := NewEngine()
	drive := func(seq int) {
		s := sample(0, seq)
		e.Observe(ev(gen, 10, s))
		e.Observe(ev(put, 10, s))
		e.Observe(ev(get, 12, s))
		e.Observe(msg(fwd, 13, []resources.Sample{s}, 1))
		e.Observe(delivered(20, s, 10))
	}
	drive(0)
	if e.PoolSize() != 1 {
		t.Fatalf("pool %d after first close, want 1", e.PoolSize())
	}
	for seq := 1; seq < 100; seq++ {
		drive(seq)
	}
	// One at a time in flight: the pool never needs a second record.
	if e.PoolSize() != 1 {
		t.Fatalf("pool grew to %d with 1 sample in flight", e.PoolSize())
	}
	if e.Delivered() != 100 || e.InFlight() != 0 {
		t.Fatalf("delivered %d in-flight %d", e.Delivered(), e.InFlight())
	}
}

// EvReset clears aggregates but keeps in-flight records (warmup
// carryover) and preserves histogram identity for live exporters.
func TestResetKeepsInFlightAndHistogramIdentity(t *testing.T) {
	e := NewEngine()
	h := e.Histogram(StagePipeWait)
	a, b := sample(0, 1), sample(0, 2)
	b.GenTime = 15
	e.Observe(ev(gen, 10, a))
	e.Observe(ev(put, 10, a))
	e.Observe(ev(get, 12, a))
	e.Observe(msg(fwd, 13, []resources.Sample{a}, 1))
	e.Observe(delivered(20, a, 10))
	e.Observe(ev(gen, 15, b)) // still in flight at reset
	e.Observe(ev(put, 15, b))

	e.Observe(resources.Event{Kind: resources.EvReset})
	if e.Delivered() != 0 || e.StageSumUS() != 0 || e.Generated() != 0 {
		t.Fatal("aggregates survived reset")
	}
	if e.InFlight() != 1 {
		t.Fatalf("in-flight %d after reset, want 1 (carryover)", e.InFlight())
	}
	if e.Histogram(StagePipeWait) != h {
		t.Fatal("reset replaced the histogram object")
	}
	if h.Count() != 0 {
		t.Fatal("histogram content survived reset")
	}
	// The carryover sample decomposes over its full path.
	e.Observe(ev(get, 30, b))
	e.Observe(msg(fwd, 31, []resources.Sample{b}, 1))
	e.Observe(delivered(40, b, 25))
	if e.Delivered() != 1 || math.Abs(e.StageSumUS()-25) > 1e-9 {
		t.Fatalf("carryover decomposition: delivered %d stage sum %v", e.Delivered(), e.StageSumUS())
	}
}

// Stage labels, metric names, and summaries stay aligned with NumStages.
func TestStageNaming(t *testing.T) {
	seen := map[string]bool{}
	for i := Stage(0); i < NumStages; i++ {
		if i.String() == "unknown" {
			t.Fatalf("stage %d has no label", i)
		}
		if seen[i.metricName()] {
			t.Fatalf("duplicate metric name %s", i.metricName())
		}
		seen[i.metricName()] = true
	}
	e := NewEngine()
	if got := len(e.Stages()); got != int(NumStages) {
		t.Fatalf("Stages() returned %d entries, want %d", got, NumStages)
	}
}
