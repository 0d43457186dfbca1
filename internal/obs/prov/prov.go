// Package prov is the streaming per-sample provenance engine: it
// observes the simulation's event stream (resources.Event) and folds
// each sample's path through the instrumentation system into a per-stage
// dwell-time decomposition — where the paper's aggregate
// generation→delivery latency (Figure 16) actually accrues.
//
// # Stage state machine
//
// A sample's path visits fixed boundary instants: generation (genT), pipe
// admission (putT — later than genT only for a blocked writer), pipe
// drain (getT), first network hand-off (fwdT), then alternating arrivals
// and re-forwards at relay daemons, and finally delivery at the main
// process (devT). The engine folds those instants into six stages whose
// telescoping sum is exactly devT − genT, the model's measured latency:
//
//	pipe-wait       = (putT − genT) + (getT − maxPut)
//	batch-residency = maxPut − putT
//	daemon-service  = fwdT − getT
//	network-transit = Σ over legs (arrival − forward)
//	merge           = Σ over relays (re-forward − arrival)
//	main-receipt    = devT − last arrival (structurally 0: the model
//	                  measures latency at the receive instant)
//
// maxPut is the latest pipe-admission instant over the message's batch,
// captured at the first forward (hops == 1): the time a sample sits in
// the pipe waiting for its batch to fill is the price of the BF policy
// (batch-residency), while the remainder of the pipe dwell is queueing
// proper (pipe-wait).
//
// # Determinism and memory bound
//
// In-flight records live in a pooled free list keyed by the sample's
// (node, proc, seq) identity; a record is recycled the instant its sample
// is delivered, dropped, or lost, so memory is bounded by the in-flight
// high-water mark. All aggregation happens in simulation-event order —
// no map iteration ever feeds a float accumulation — so output is
// byte-deterministic at any worker count and event calendar. When
// provenance is disabled the engine does not exist and costs nothing;
// attached, it allocates nothing per sample once its record pool is warm
// (pinned by the allocation tests).
//
// # Fault interactions
//
// Thinning, daemon crashes, link losses, and exhausted retransmission
// budgets all emit EvSampleLost, which closes the record without
// observing stages. Injected duplicates on unprotected links deliver the
// same sample twice: the first delivery closes the record; later
// deliveries (or losses) of an already-closed identity are tallied as
// duplicates so the engine's totals still reconcile exactly with the
// aggregate latency histogram, which observes every delivery.
package prov

import (
	"math"

	"rocc/internal/obs"
	"rocc/internal/procs"
	"rocc/internal/resources"
)

// Stage indexes one dwell-time stage of a sample's path.
type Stage int

const (
	// StagePipeWait: queueing in the application→daemon pipe (blocked-put
	// wait plus post-batch-complete drain wait).
	StagePipeWait Stage = iota
	// StageBatchResidency: waiting in the pipe for the forwarding batch to
	// fill — the BF policy's latency price.
	StageBatchResidency
	// StageDaemonService: daemon CPU service between drain and network
	// hand-off (collection plus the forwarding system call).
	StageDaemonService
	// StageNetworkTransit: total network occupancy over all hops.
	StageNetworkTransit
	// StageMerge: relay-daemon merge service in tree forwarding.
	StageMerge
	// StageMainReceipt: delivery instant minus final network arrival
	// (structurally zero; kept so the decomposition is explicit).
	StageMainReceipt

	// NumStages is the number of stages.
	NumStages
)

// String returns the stage's kebab-case label.
func (s Stage) String() string {
	switch s {
	case StagePipeWait:
		return "pipe-wait"
	case StageBatchResidency:
		return "batch-residency"
	case StageDaemonService:
		return "daemon-service"
	case StageNetworkTransit:
		return "network-transit"
	case StageMerge:
		return "merge"
	case StageMainReceipt:
		return "main-receipt"
	default:
		return "unknown"
	}
}

// metricName returns the stage's OpenMetrics-safe histogram name.
func (s Stage) metricName() string {
	switch s {
	case StagePipeWait:
		return "latency_stage_pipe_wait_us"
	case StageBatchResidency:
		return "latency_stage_batch_residency_us"
	case StageDaemonService:
		return "latency_stage_daemon_service_us"
	case StageNetworkTransit:
		return "latency_stage_network_transit_us"
	case StageMerge:
		return "latency_stage_merge_us"
	default:
		return "latency_stage_main_receipt_us"
	}
}

// key is a sample's globally unique identity (Seq never resets).
type key struct{ node, proc, seq int }

// record is one in-flight sample's provenance state. Records are pooled:
// the free list recycles them at close, so steady state allocates only
// when the in-flight population reaches a new high-water mark.
type record struct {
	genT   float64
	putT   float64
	getT   float64
	maxPut float64 // latest putT over the forwarded batch (set at hops==1)
	fwdT   float64 // first network hand-off
	lastT  float64 // latest path boundary (for network/merge legs)
	net    float64 // accumulated network-transit dwell
	merge  float64 // accumulated relay-merge dwell

	// hops and inTransit gate the leg accumulators against duplicate
	// copies of the same message (injected dups share the sample's
	// identity): an arrival only closes a network leg when the record
	// believes the sample is in transit at that depth, and a relay
	// re-forward only closes a merge leg at the next depth.
	hops      int
	inTransit bool
	hasPut    bool
	hasGet    bool
	hasFwd    bool
}

// StageSummary is one stage's aggregate over all delivered samples.
type StageSummary struct {
	// Stage is the kebab-case stage label.
	Stage string
	// MeanUS/P50US/P95US/P99US summarize the stage's dwell distribution
	// in microseconds (quantiles interpolated from the histogram).
	MeanUS float64
	P50US  float64
	P95US  float64
	P99US  float64
	// SumUS is the stage's exact total dwell over all delivered samples.
	SumUS float64
	// SharePct is SumUS as a percentage of the total across stages.
	SharePct float64
}

// Engine is the provenance engine. It implements resources.Observer;
// wire it as Collector.Flow. Not safe for concurrent use — it is fed from
// the single simulation goroutine, like the trace sink.
type Engine struct {
	recs map[key]*record
	free []*record

	hists [NumStages]*obs.Histogram
	sums  [NumStages]float64

	// Counters over the measured window (EvReset clears them at the warmup
	// boundary; in-flight records survive, mirroring the model's latency
	// accounting, which measures carryover samples from generation).
	generated    uint64
	delivered    uint64
	dropped      uint64
	lost         [4]uint64 // by procs.LossReason
	dupDelivered uint64    // deliveries of an already-closed identity
	dupLost      uint64    // losses of an already-closed identity

	latencySumUS    float64 // Σ latency over first deliveries
	dupLatencySumUS float64 // Σ latency over duplicate deliveries
	maxCloseErrUS   float64 // max |Σ stages − latency| over first deliveries
}

// NewEngine returns an empty engine with one histogram per stage,
// spanning sub-microsecond dwell to ~12 minutes in half-octave buckets.
func NewEngine() *Engine {
	e := &Engine{recs: make(map[key]*record)}
	for i := Stage(0); i < NumStages; i++ {
		e.hists[i] = obs.NewHistogram(i.metricName(), obs.ExpBuckets(1, math.Sqrt2, 60))
	}
	return e
}

// get returns the identity's in-flight record, creating it from the pool
// on first sight. Event ordering is not assumed: the pipe events fire
// before EvSampleGenerated in the application's write path, so any
// identity-bearing event may be the first — genT is always available as
// s.GenTime.
func (e *Engine) get(s resources.Sample) *record {
	k := key{s.Node, s.Proc, s.Seq}
	if r, ok := e.recs[k]; ok {
		return r
	}
	var r *record
	if n := len(e.free); n > 0 {
		r = e.free[n-1]
		e.free = e.free[:n-1]
		*r = record{}
	} else {
		r = &record{}
	}
	r.genT = s.GenTime
	r.putT = s.GenTime
	r.maxPut = s.GenTime
	e.recs[k] = r
	return r
}

// close removes and recycles the identity's record; ok reports whether
// one was in flight.
func (e *Engine) close(s resources.Sample) (rec record, ok bool) {
	k := key{s.Node, s.Proc, s.Seq}
	r, found := e.recs[k]
	if !found {
		return record{}, false
	}
	rec = *r
	delete(e.recs, k)
	e.free = append(e.free, r)
	return rec, true
}

// Observe implements resources.Observer: it folds one event into the
// in-flight records. Generation and pipe admission open or update a
// record, the pipe drain and each forward or relay arrival mark a path
// boundary, and a drop, loss or delivery closes it. Other kinds carry no
// sample boundary and are ignored.
func (e *Engine) Observe(ev resources.Event) {
	switch ev.Kind {
	case resources.EvSampleGenerated:
		e.get(ev.Sample)
		e.generated++
	case resources.EvPipePut:
		r := e.get(ev.Sample)
		r.putT = ev.T
		r.maxPut = ev.T
		r.hasPut = true
	case resources.EvPipeGet:
		r := e.get(ev.Sample)
		r.getT = ev.T
		r.hasGet = true
	case resources.EvPipeDropped:
		if _, ok := e.close(ev.Sample); ok {
			e.dropped++
		}
	case resources.EvMessageForwarded:
		e.forward(ev.T, ev.Batch, ev.Hops)
	case resources.EvMessageReceived:
		e.arrive(ev.T, ev.Batch, ev.Hops)
	case resources.EvSampleDelivered:
		e.deliver(ev.T, ev.Sample, ev.Dur)
	case resources.EvSampleLost:
		e.lose(ev.Sample, procs.LossReason(ev.N))
	case resources.EvReset:
		e.reset()
	}
}

// forward handles a daemon's network hand-off of batch. At the first hop
// the batch defines maxPut — the latest pipe admission across the
// message — which splits each member's pipe dwell into batch-residency
// and pipe-wait proper. Relay re-forwards close a merge leg.
func (e *Engine) forward(t float64, batch []resources.Sample, hops int) {
	if hops == 1 {
		maxPut := math.Inf(-1)
		for _, s := range batch {
			if r, ok := e.recs[key{s.Node, s.Proc, s.Seq}]; ok && r.putT > maxPut {
				maxPut = r.putT
			}
		}
		for _, s := range batch {
			r, ok := e.recs[key{s.Node, s.Proc, s.Seq}]
			if !ok {
				continue
			}
			if !r.hasGet {
				r.getT = t
			}
			if !r.hasFwd { // first forward wins (retransmits re-occupy the net, not the daemon)
				r.hasFwd = true
				r.fwdT = t
				if maxPut > r.maxPut {
					r.maxPut = maxPut
				}
				r.lastT = t
				r.hops = 1
				r.inTransit = true
			}
		}
		return
	}
	for _, s := range batch {
		r, ok := e.recs[key{s.Node, s.Proc, s.Seq}]
		if ok && r.hasFwd && !r.inTransit && hops == r.hops+1 {
			r.merge += t - r.lastT
			r.lastT = t
			r.hops = hops
			r.inTransit = true
		}
	}
}

// arrive handles a relay daemon's receipt of batch: it closes one
// network leg.
func (e *Engine) arrive(t float64, batch []resources.Sample, hops int) {
	for _, s := range batch {
		r, ok := e.recs[key{s.Node, s.Proc, s.Seq}]
		if ok && r.hasFwd && r.inTransit && hops == r.hops {
			r.net += t - r.lastT
			r.lastT = t
			r.inTransit = false
		}
	}
}

// deliver handles the sample's receipt at the main process: the path is
// complete. The final network leg ends at the delivery instant; stages are observed and
// the record is recycled. A delivery for an identity with no record is an
// injected duplicate (the first delivery already closed it): it is
// tallied separately so totals still reconcile with the aggregate latency
// histogram, which observes every delivery.
func (e *Engine) deliver(t float64, s resources.Sample, latencyUS float64) {
	r, ok := e.close(s)
	if !ok {
		e.dupDelivered++
		e.dupLatencySumUS += latencyUS
		return
	}
	if !r.hasFwd {
		// Degenerate path (no forward observed — cannot happen in the
		// model, but stay total): attribute everything to pipe-wait.
		r.fwdT = t
		r.getT = t
		r.maxPut = r.putT
		r.lastT = t
	}
	r.net += t - r.lastT

	pipeWait := (r.putT - r.genT) + (r.getT - r.maxPut)
	batchRes := r.maxPut - r.putT
	daemonSvc := r.fwdT - r.getT
	mainRcpt := 0.0

	e.observe(StagePipeWait, pipeWait)
	e.observe(StageBatchResidency, batchRes)
	e.observe(StageDaemonService, daemonSvc)
	e.observe(StageNetworkTransit, r.net)
	e.observe(StageMerge, r.merge)
	e.observe(StageMainReceipt, mainRcpt)

	e.delivered++
	e.latencySumUS += latencyUS
	sum := pipeWait + batchRes + daemonSvc + r.net + r.merge + mainRcpt
	if err := math.Abs(sum - latencyUS); err > e.maxCloseErrUS {
		e.maxCloseErrUS = err
	}
}

// observe records one stage dwell, clamping the tiny negative residues
// float cancellation can produce at zero-width stages.
func (e *Engine) observe(st Stage, v float64) {
	if v < 0 {
		v = 0
	}
	e.hists[st].Observe(v)
	e.sums[st] += v
}

// lose handles a sample that left the system without delivery. The
// record closes without stage observations; a loss for an already-closed
// identity (a duplicate dying after the original closed) is tallied
// separately.
func (e *Engine) lose(s resources.Sample, reason procs.LossReason) {
	if _, ok := e.close(s); !ok {
		e.dupLost++
		return
	}
	if reason >= 0 && int(reason) < len(e.lost) {
		e.lost[reason]++
	}
}

// reset handles EvReset, the warmup boundary. All aggregates clear;
// in-flight records survive, so a sample generated during warmup but
// delivered in the measured window decomposes over its full path —
// exactly how the model's latency accumulator measures it.
func (e *Engine) reset() {
	for i := Stage(0); i < NumStages; i++ {
		e.hists[i].Reset()
		e.sums[i] = 0
	}
	e.generated, e.delivered, e.dropped = 0, 0, 0
	e.lost = [4]uint64{}
	e.dupDelivered, e.dupLost = 0, 0
	e.latencySumUS, e.dupLatencySumUS, e.maxCloseErrUS = 0, 0, 0
}

// Histogram returns the stage's dwell histogram (live: the exporter
// snapshots it mid-run).
func (e *Engine) Histogram(s Stage) *obs.Histogram { return e.hists[s] }

// Stages summarizes every stage over the delivered samples, in stage
// order. Shares are exact sum ratios, so they are byte-deterministic.
func (e *Engine) Stages() []StageSummary {
	total := 0.0
	for i := Stage(0); i < NumStages; i++ {
		total += e.sums[i]
	}
	out := make([]StageSummary, 0, NumStages)
	for i := Stage(0); i < NumStages; i++ {
		h := e.hists[i]
		s := StageSummary{
			Stage:  i.String(),
			MeanUS: h.Mean(),
			P50US:  h.Quantile(0.50),
			P95US:  h.Quantile(0.95),
			P99US:  h.Quantile(0.99),
			SumUS:  e.sums[i],
		}
		if total > 0 {
			s.SharePct = e.sums[i] / total * 100
		}
		out = append(out, s)
	}
	return out
}

// Accounting counters (measured window).

// Generated returns samples seen generated.
func (e *Engine) Generated() uint64 { return e.generated }

// Delivered returns first deliveries (duplicates excluded).
func (e *Engine) Delivered() uint64 { return e.delivered }

// Dropped returns samples that died at a full pipe.
func (e *Engine) Dropped() uint64 { return e.dropped }

// Lost returns first losses with the given reason.
func (e *Engine) Lost(reason procs.LossReason) uint64 {
	if reason < 0 || int(reason) >= len(e.lost) {
		return 0
	}
	return e.lost[reason]
}

// LostTotal returns first losses over all reasons.
func (e *Engine) LostTotal() uint64 {
	var n uint64
	for _, v := range e.lost {
		n += v
	}
	return n
}

// DupDelivered returns deliveries of already-closed identities (injected
// duplicates reaching the main process).
func (e *Engine) DupDelivered() uint64 { return e.dupDelivered }

// DupLost returns losses of already-closed identities.
func (e *Engine) DupLost() uint64 { return e.dupLost }

// InFlight returns the number of open records.
func (e *Engine) InFlight() int { return len(e.recs) }

// PoolSize returns the free-list length (recycled records awaiting reuse).
func (e *Engine) PoolSize() int { return len(e.free) }

// LatencySumUS returns the exact latency total over first deliveries.
func (e *Engine) LatencySumUS() float64 { return e.latencySumUS }

// DupLatencySumUS returns the latency total over duplicate deliveries.
func (e *Engine) DupLatencySumUS() float64 { return e.dupLatencySumUS }

// StageSumUS returns the exact total dwell across all stages over first
// deliveries — equal to LatencySumUS up to float tolerance.
func (e *Engine) StageSumUS() float64 {
	total := 0.0
	for i := Stage(0); i < NumStages; i++ {
		total += e.sums[i]
	}
	return total
}

// MaxCloseErrUS returns the largest per-sample |Σ stages − latency|
// closure error seen — the "for every sample" decomposition guarantee.
func (e *Engine) MaxCloseErrUS() float64 { return e.maxCloseErrUS }
