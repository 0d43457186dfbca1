package obs

import (
	"math"
	"sync"
	"sync/atomic"

	"rocc/internal/des"
	"rocc/internal/resources"
)

// Counter is a monotonically increasing count. Writes come from the
// single simulation goroutine, but the live telemetry exporter
// (internal/obs/live) reads counters from an HTTP handler while a run
// mutates them, so both sides are atomic: a scrape observes a consistent
// value without ever stalling the hot path.
type Counter struct {
	Name string
	v    atomic.Uint64
}

// Add increments the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store sets the counter to n: the publish path for a count kept
// elsewhere (the engine's dispatch count behind Metrics.Events).
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time value, readable concurrently with Set (the
// float is stored as atomic bits).
type Gauge struct {
	Name string
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a bucketed distribution with interpolated quantiles. The
// bucket i counts observations in (bounds[i-1], bounds[i]]; one overflow
// bucket catches everything above the last bound.
type Histogram struct {
	Name string
	// mu makes the histogram safe to snapshot from the live exporter
	// while the simulation goroutine observes into it. The lock is
	// uncontended on the hot path (the exporter grabs it only per
	// scrape) and allocation-free, so Observe stays zero-alloc.
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1
	total  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns a histogram over the given ascending bucket bounds.
func NewHistogram(name string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		Name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// ExpBuckets returns n exponentially spaced bounds starting at start with
// the given growth factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the exact mean of all observations (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.max
}

// HistogramSnapshot is a point-in-time copy of a histogram, safe to read
// while the run keeps observing: bucket counts (one overflow bucket past
// the last bound), total, sum, and observed extremes.
type HistogramSnapshot struct {
	Name   string
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last is the overflow bucket
	Total  uint64
	Sum    float64
	Min    float64 // +Inf when empty
	Max    float64 // -Inf when empty
}

// Snapshot returns a consistent copy — the race-safe read the live
// OpenMetrics exporter renders from.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Name:   h.Name,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Total:  h.total,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// Quantile estimates the p-quantile (0 <= p <= 1) by locating the bucket
// holding the target rank and interpolating linearly within it, on the
// usual assumption of uniform spread inside a bucket. The estimate is
// clamped to the observed [Min, Max], which also gives exact answers for
// the overflow bucket and single-bucket edge cases. Returns 0 when empty.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	rank := p * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			// Bucket i holds the rank. Its value range is
			// (bounds[i-1], bounds[i]], clamped to what was observed.
			lo := h.min
			if i > 0 && h.bounds[i-1] > lo {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return h.max
}

// Reset zeroes the histogram in place (identity-preserving, so live
// exporters holding a reference keep reading the same histogram across a
// warmup reset).
func (h *Histogram) Reset() {
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum = 0, 0
	h.min, h.max = math.Inf(1), math.Inf(-1)
	h.mu.Unlock()
}

// Series is one sampled time series: value V[i] observed at simulated
// time T[i] (microseconds). The sampler appends under mu so the live
// exporter can read Len/Last mid-run; post-run analysis code may keep
// reading T/V directly — by then the run goroutine is done, so there is
// no concurrent writer left to race with.
type Series struct {
	Name string
	T    []float64
	V    []float64

	mu sync.Mutex
}

// append records one locked observation (the Sampler's write path).
func (s *Series) append(t, v float64) {
	s.mu.Lock()
	s.T = append(s.T, t)
	s.V = append(s.V, v)
	s.mu.Unlock()
}

// Len returns the number of samples recorded so far (safe mid-run).
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.T)
}

// Last returns the most recent (time, value) sample, with ok reporting
// whether any sample exists yet (safe mid-run).
func (s *Series) Last() (t, v float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.T) == 0 {
		return 0, 0, false
	}
	return s.T[len(s.T)-1], s.V[len(s.V)-1], true
}

// Metrics is the run's metric registry: fixed counters covering the
// sample pipeline, the delivery-latency histogram, and any sampler
// series. Only the simulation goroutine writes it, but the live exporter
// reads it mid-run, so counters are atomic and the histogram and series
// lock.
type Metrics struct {
	Events        Counter // engine events dispatched (published by core, not counted here)
	Generated     Counter // samples written by application processes
	Delivered     Counter // samples received at the main process
	DeliveredMsgs Counter // forwarded messages received at the main process
	Dropped       Counter // samples discarded at full pipes
	BlockedPuts   Counter // application writes stalled on a full pipe
	Batches       Counter // daemon pipe-drain batches
	Forwards      Counter // messages put on the network by daemons
	Retransmits   Counter // resilient-uplink retries
	Crashes       Counter // daemon crashes
	Lost          Counter // samples lost for good (thinning, crashes, links)

	// Latency is the end-to-end sample delivery delay in microseconds
	// (generation at the application to receipt at the main process) —
	// the Figure 16 quantity, as a distribution rather than a mean.
	Latency *Histogram

	series []*Series
}

// NewMetrics returns a registry with the standard pipeline counters and a
// latency histogram spanning 100 µs to ~100 s in quarter-decade buckets.
func NewMetrics() *Metrics {
	m := &Metrics{Latency: NewHistogram("sample_latency_us", ExpBuckets(100, math.Sqrt2, 40))}
	for name, c := range map[string]*Counter{
		"events":       &m.Events,
		"generated":    &m.Generated,
		"delivered":    &m.Delivered,
		"messages":     &m.DeliveredMsgs,
		"dropped":      &m.Dropped,
		"blocked_puts": &m.BlockedPuts,
		"batches":      &m.Batches,
		"forwards":     &m.Forwards,
		"retransmits":  &m.Retransmits,
		"crashes":      &m.Crashes,
		"lost":         &m.Lost,
	} {
		c.Name = name
	}
	return m
}

// Counters returns the registry's counters in a stable order.
func (m *Metrics) Counters() []*Counter {
	return []*Counter{
		&m.Events, &m.Generated, &m.Delivered, &m.DeliveredMsgs, &m.Dropped,
		&m.BlockedPuts, &m.Batches, &m.Forwards, &m.Retransmits, &m.Crashes,
		&m.Lost,
	}
}

// count updates the pipeline counters and the latency histogram for one
// event of the stream.
func (m *Metrics) count(e *resources.Event) {
	switch e.Kind {
	case resources.EvSampleGenerated:
		m.Generated.Add(1)
	case resources.EvSampleBlocked:
		m.BlockedPuts.Add(1)
	case resources.EvPipeDropped:
		m.Dropped.Add(1)
	case resources.EvBatchCollected:
		m.Batches.Add(1)
	case resources.EvMessageForwarded:
		m.Forwards.Add(1)
	case resources.EvMessageDelivered:
		m.DeliveredMsgs.Add(1)
	case resources.EvSampleDelivered:
		m.Delivered.Add(1)
		m.Latency.Observe(e.Dur)
	case resources.EvSampleLost:
		m.Lost.Add(1)
	case resources.EvDaemonCrash:
		m.Crashes.Add(1)
	case resources.EvRetransmit:
		m.Retransmits.Add(1)
	}
}

// Series returns the sampler time series registered so far.
func (m *Metrics) Series() []*Series { return m.series }

// Reset zeroes all counters, the latency histogram, and sampler series
// (warmup removal); probe registrations survive.
func (m *Metrics) Reset() {
	for _, c := range m.Counters() {
		c.Store(0)
	}
	m.Latency.Reset()
	for _, s := range m.series {
		s.mu.Lock()
		s.T = s.T[:0]
		s.V = s.V[:0]
		s.mu.Unlock()
	}
}

// Sampler periodically captures gauge-style probes as time series. It
// rides the simulator's own event calendar: each tick reads every probe
// and reschedules itself, so sampling is purely observational — it runs
// no model code and leaves model-event ordering untouched.
type Sampler struct {
	sim      *des.Simulator
	interval float64
	probes   []probe
	stopped  bool

	// expect is the tick-count capacity hint for new probe series
	// (SetExpectedTicks); tickFn is the reusable reschedule closure
	// (a method value would allocate at every tick); onTick is the
	// OnTick callback, nil when none is set.
	expect int
	tickFn func()
	onTick func()
}

// SetExpectedTicks sizes the T/V slices of subsequently registered probes
// for n ticks, so a run of known length appends without growth. Callers
// derive n from the run geometry: (warmup+duration)/interval, plus slack.
func (s *Sampler) SetExpectedTicks(n int) {
	if n > 0 {
		s.expect = n
	}
}

type probe struct {
	series *Series
	read   func(tUS float64) float64
}

// NewSampler returns a sampler ticking every interval microseconds
// (interval must be positive).
func NewSampler(sim *des.Simulator, interval float64) *Sampler {
	if interval <= 0 {
		panic("obs: sampler interval must be positive")
	}
	return &Sampler{sim: sim, interval: interval}
}

// Probe registers a named probe; read is called at each tick with the
// current simulated time. The returned series fills as the run advances
// and is also appended to the registry m (when m is non-nil).
func (s *Sampler) Probe(m *Metrics, name string, read func(tUS float64) float64) *Series {
	ser := &Series{Name: name}
	if s.expect > 0 {
		ser.T = make([]float64, 0, s.expect)
		ser.V = make([]float64, 0, s.expect)
	}
	s.probes = append(s.probes, probe{series: ser, read: read})
	if m != nil {
		m.series = append(m.series, ser)
	}
	return ser
}

// Start schedules the first tick. Call once, after all probes are
// registered.
func (s *Sampler) Start() {
	s.tickFn = s.tick
	s.sim.Schedule(s.interval, s.tickFn)
}

// OnTick sets fn to run at every tick, before the probes read. It is
// the hook that publishes counts the engine keeps itself, such as the
// dispatch count behind Metrics.Events, on the simulation goroutine.
func (s *Sampler) OnTick(fn func()) { s.onTick = fn }

// Stop halts sampling after the current tick.
func (s *Sampler) Stop() { s.stopped = true }

func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	if s.onTick != nil {
		s.onTick()
	}
	t := float64(s.sim.Now())
	for _, p := range s.probes {
		p.series.append(t, p.read(t))
	}
	s.sim.Schedule(s.interval, s.tickFn)
}
