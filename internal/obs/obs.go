// Package obs is the in-simulator observability layer: sample-lifecycle
// tracing, metrics probes, and structured run logging for the ROCC
// simulation stack.
//
// The design goal is zero overhead when disabled. The simulation reports
// itself as one typed event stream (resources.Event): pipes, CPUs, the
// network, application processes, daemons, the main process and fault
// links each hold one resources.Observer, nil unless observed — a single
// predictable branch on the hot path (proven by the nil-observer
// allocation tests and the root package's per-experiment allocation
// pins). When a
// Collector is attached via core.Model.EnableObservability, it subscribes
// to that stream and keeps:
//
//   - Occupancy spans: every CPU scheduler dispatch and network transfer,
//     with owner class, simulated start time, and length — the same
//     records the AIX kernel tracer produced for the paper's Section 5
//     measurements. Exportable as internal/trace records (rocctrace
//     analyzes simulated runs exactly like measured traces) and as Chrome
//     trace-event JSON loadable in Perfetto or chrome://tracing.
//   - Sample-lifecycle records: generation, pipe put/block/drop/get,
//     batch collection, forwarding, relay arrival, retransmission,
//     delivery and loss, each tagged with the sample's (node, proc, seq)
//     identity and simulated time, so a sample's full path from
//     application write to main-process receipt is reconstructible.
//   - Metrics: a small registry of counters, gauges, and bucketed
//     histograms (with interpolated quantiles — the p50/p95/p99 delivery
//     delay behind the paper's latency figures), plus a periodic Sampler
//     that captures resource utilization, queue lengths, and pipe
//     occupancy as simulated-time series.
//
// The trace sink keeps spans and records in append-only fixed-length
// blocks, so recording never copies what is already stored (a trace
// costs about one copy of itself), and the exporters read the blocks in
// place.
//
// A Collector's Flow (the provenance engine, internal/obs/prov) sees the
// same stream. The dispatch loop itself carries no hook: the events
// metric is the engine's own des.Simulator.Dispatched count, published
// by core at every sampler tick and at the end of a run.
package obs

import "rocc/internal/resources"

// Collector is the one observer wired through a model: each event
// updates the optional metrics registry, reaches the optional flow
// observer, and is stored by the optional trace sink. A nil Sink,
// Metrics, or Flow disables that part; the corresponding work is
// skipped.
type Collector struct {
	Sink    *TraceSink
	Metrics *Metrics
	Flow    resources.Observer
}

// NewCollector returns a collector with the requested halves enabled.
func NewCollector(trace, metrics bool) *Collector {
	c := &Collector{}
	if trace {
		c.Sink = NewTraceSink()
	}
	if metrics {
		c.Metrics = NewMetrics()
	}
	return c
}

// ResetAccounting discards everything recorded so far: trace spans and
// records, metric counters, histograms, and sampler series, and passes
// an EvReset event to Flow. The model calls it at the end of the warmup
// period so observability data covers exactly the measured window, like
// every other accounting in the model.
func (c *Collector) ResetAccounting() {
	if c.Sink != nil {
		c.Sink.Reset()
	}
	if c.Metrics != nil {
		c.Metrics.Reset()
	}
	if c.Flow != nil {
		c.Flow.Observe(resources.Event{Kind: resources.EvReset})
	}
}

// Observe implements resources.Observer.
func (c *Collector) Observe(e resources.Event) {
	if c.Metrics != nil {
		c.Metrics.count(&e)
	}
	if c.Flow != nil {
		c.Flow.Observe(e)
	}
	if c.Sink != nil {
		c.Sink.add(&e)
	}
}
