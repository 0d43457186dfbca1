package obs

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/trace"
)

// occ is a completed occupancy slice of length dur starting at start.
func occ(kind resources.EventKind, unit int, owner string, start, dur float64) resources.Event {
	return resources.Event{Kind: kind, T: start + dur, Dur: dur, Unit: unit, Owner: owner}
}

// The sink stores the compact record, not the stream event: trace
// memory dominates an observed run's allocation.
func TestRecordStaysCompact(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n > 72 {
		t.Fatalf("Record is %d bytes, want at most 72", n)
	}
}

// observeMix records n spans and n lifecycle records, interleaved: span i
// is a CPU slice of length i on unit i%4, all starting at 0 so that
// TraceRecords' stable time sort keeps recorded order; record i is the
// generation of the sample with Seq i.
func observeMix(c *Collector, n int) {
	for i := 0; i < n; i++ {
		c.Observe(occ(resources.EvCPUSlice, i%4, procs.OwnerApp, 0, float64(i)))
		c.Observe(resources.Event{Kind: resources.EvSampleGenerated, T: float64(i), Sample: resources.Sample{Seq: i}})
	}
}

// checkMix reports whether the sink holds observeMix's n spans and
// records in recorded order: the records read from the blocks in place,
// the spans through TraceRecords, whose stable sort keeps that order.
func checkMix(t *testing.T, s *TraceSink, n int) {
	t.Helper()
	if spans, records := s.Counts(); spans != n || records != n {
		t.Fatalf("Counts() = %d, %d, want %d each", spans, records, n)
	}
	i := 0
	for _, blk := range s.events.b {
		for _, e := range blk {
			if e.Seq != i || e.TUS != float64(i) {
				t.Fatalf("record %d = %+v, out of recorded order", i, e)
			}
			i++
		}
	}
	recs := s.TraceRecords()
	if i != n || len(recs) != n {
		t.Fatalf("blocks hold %d records, TraceRecords %d spans, want %d each", i, len(recs), n)
	}
	for i, r := range recs {
		if r.DurationUS != float64(i) || r.PID != 100+i%4 {
			t.Fatalf("trace record %d = %+v, out of recorded order", i, r)
		}
	}
}

// The block store keeps recorded order across every block boundary, and
// Reset leaves a sink that records again from empty.
func TestTraceSinkBlockOrder(t *testing.T) {
	const n = 3*blockLen + 1
	c := NewCollector(true, false)
	observeMix(c, n)
	checkMix(t, c.Sink, n)

	c.Sink.Reset()
	if spans, records := c.Sink.Counts(); spans != 0 || records != 0 || len(c.Sink.spans.b) != 0 || len(c.Sink.events.b) != 0 {
		t.Fatalf("Reset left %d spans and %d records", spans, records)
	}
	observeMix(c, blockLen+1)
	checkMix(t, c.Sink, blockLen+1)
}

// Recording never copies what is already stored: n records on a fresh
// sink allocate their own bytes plus at most one partly filled block and
// a small slack: the block index, and the few KiB the race detector's
// runtime adds. A single slice grown by append allocates about 5n
// records and fails this.
func TestTraceSinkAllocatesOneCopy(t *testing.T) {
	const n = 10*blockLen + 1
	c := NewCollector(true, false)
	e := resources.Event{Kind: resources.EvPipePut, T: 1, Unit: 2, N: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.Observe(e)
	}
	runtime.ReadMemStats(&after)
	rec := uint64(unsafe.Sizeof(Record{}))
	const slack = 64 << 10
	got, limit := after.TotalAlloc-before.TotalAlloc, (n+blockLen)*rec+slack
	if got > limit {
		t.Fatalf("recording %d records allocated %d bytes, want at most %d", n, got, limit)
	}
	if _, records := c.Sink.Counts(); records != n {
		t.Fatalf("sink holds %d records, want %d", records, n)
	}
}

// BenchmarkTraceSinkObserve feeds a sink-only Collector a fixed mix of
// six events: a CPU slice, a generated sample, a pipe put and get, a
// forwarded message carrying 16 samples and a delivered sample (22
// stored entries). The sink is reset every sinkRun passes, like a run's
// warmup boundary, so memory stays bounded at any b.N while the block
// allocations stay in the measured bytes.
func BenchmarkTraceSinkObserve(b *testing.B) {
	const sinkRun = 4096
	smp := resources.Sample{GenTime: 10, Node: 1, Proc: 2, Seq: 3}
	batch := make([]resources.Sample, 16)
	for i := range batch {
		batch[i] = resources.Sample{GenTime: 5, Node: i % 4, Proc: i, Seq: i}
	}
	mix := []resources.Event{
		occ(resources.EvCPUSlice, 0, procs.OwnerApp, 0, 100),
		{Kind: resources.EvSampleGenerated, T: 10, Sample: smp},
		{Kind: resources.EvPipePut, T: 10, Unit: 1, Sample: smp, N: 1},
		{Kind: resources.EvPipeGet, T: 20, Unit: 1, Sample: smp},
		{Kind: resources.EvMessageForwarded, T: 25, Unit: 1, Batch: batch, Hops: 1},
		{Kind: resources.EvSampleDelivered, T: 40, Sample: smp, Dur: 30},
	}
	c := NewCollector(true, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%sinkRun == 0 {
			c.Sink.Reset()
		}
		for _, e := range mix {
			c.Observe(e)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(b.N * len(mix))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
}

func TestTraceRecordsRoundTrip(t *testing.T) {
	c := NewCollector(true, false)
	c.Observe(occ(resources.EvCPUSlice, 0, procs.OwnerApp, 0, 100))
	c.Observe(occ(resources.EvCPUSlice, 1, procs.OwnerPd, 50, 30))
	c.Observe(occ(resources.EvNetTransfer, 0, procs.OwnerPd, 80, 20))
	c.Observe(occ(resources.EvCPUSlice, 0, procs.OwnerMain, 200, 10))

	recs := c.Sink.TraceRecords()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].StartUS < recs[i-1].StartUS {
			t.Fatal("records not sorted by start time")
		}
	}
	an, err := trace.Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := an.TotalsFor(trace.ProcApplication)
	if app.CPUTimeUS != 100 {
		t.Fatalf("application CPU total %v, want 100", app.CPUTimeUS)
	}
	pd, _ := an.TotalsFor(trace.ProcPd)
	if pd.CPUTimeUS != 30 || pd.NetTimeUS != 20 {
		t.Fatalf("pd totals cpu=%v net=%v, want 30/20", pd.CPUTimeUS, pd.NetTimeUS)
	}
	// Per-unit PIDs: pd span on CPU 1 gets base 200 + unit 1.
	if len(pd.PIDs) != 2 { // 201 (cpu 1) and 200 (net, unit 0)
		t.Fatalf("pd PIDs = %v, want two (per-unit)", pd.PIDs)
	}

	// The text format accepts the export unchanged.
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round-trip lost records: %d -> %d", len(recs), len(back))
	}
}

func TestWriteChromeValidates(t *testing.T) {
	c := NewCollector(true, false)
	c.Observe(occ(resources.EvCPUSlice, 0, procs.OwnerApp, 0, 100))
	c.Observe(occ(resources.EvNetTransfer, 0, procs.OwnerPd, 100, 25))
	sample := resources.Sample{GenTime: 10, Node: 0, Proc: 2, Seq: 7}
	c.Observe(resources.Event{Kind: resources.EvSampleGenerated, T: 10, Sample: sample})
	c.Observe(resources.Event{Kind: resources.EvPipePut, T: 10, Unit: 3, Sample: sample, N: 1})
	c.Observe(resources.Event{Kind: resources.EvPipeGet, T: 40, Unit: 3, Sample: sample, N: 0})
	c.Observe(resources.Event{Kind: resources.EvSampleDelivered, T: 120, Sample: sample, Dur: 110})
	c.Observe(resources.Event{Kind: resources.EvDaemonCrash, T: 130, Unit: 1, N: 4})
	c.Observe(resources.Event{Kind: resources.EvDaemonRestore, T: 150, Unit: 1})

	var buf bytes.Buffer
	if err := c.Sink.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	n, err := ValidateChrome(strings.NewReader(out))
	if err != nil {
		t.Fatalf("export does not validate: %v\n%s", err, out)
	}
	// 2 spans + 6 lifecycle events + metadata (cpu 0, network, pipe 3,
	// node-0 samples, node-1 samples) + the sample's flow start and end.
	if want := 2 + 6 + 5 + 2; n != want {
		t.Fatalf("validated %d events, want %d\n%s", n, want, out)
	}
	for _, needle := range []string{`"ph":"X"`, `"ph":"i"`, `"ph":"M"`, "sample p2 #7", "daemon-crash",
		`"ph":"s"`, `"ph":"f"`, `"id":"n0.p2.s7"`, `"bp":"e"`} {
		if !strings.Contains(out, needle) {
			t.Fatalf("export missing %q:\n%s", needle, out)
		}
	}
}

// TestWriteChromeFlowPath drives a full multi-hop sample path — generate,
// pipe, forward, relay arrival, re-forward, delivery — plus a lost sample
// and an injected duplicate delivery, and checks the flow-event contract:
// one "s" per generated sample, "t" steps along the path, exactly one "f"
// even when the sample is delivered twice, and no flow events at all for
// a sample whose generation predates the trace (warmup truncation).
func TestWriteChromeFlowPath(t *testing.T) {
	c := NewCollector(true, false)
	a := resources.Sample{GenTime: 10, Node: 0, Proc: 0, Seq: 1}
	b := resources.Sample{GenTime: 12, Node: 0, Proc: 0, Seq: 2}
	ghost := resources.Sample{GenTime: 1, Node: 0, Proc: 0, Seq: 0} // not generated in-trace

	c.Observe(resources.Event{Kind: resources.EvSampleGenerated, T: 10, Sample: a})
	c.Observe(resources.Event{Kind: resources.EvSampleGenerated, T: 12, Sample: b})
	c.Observe(resources.Event{Kind: resources.EvPipePut, T: 10, Unit: 0, Sample: a, N: 1})
	c.Observe(resources.Event{Kind: resources.EvPipePut, T: 12, Unit: 0, Sample: b, N: 2})
	c.Observe(resources.Event{Kind: resources.EvPipeGet, T: 20, Unit: 0, Sample: a, N: 1})
	c.Observe(resources.Event{Kind: resources.EvPipeGet, T: 20, Unit: 0, Sample: b, N: 0})
	batch := []resources.Sample{a, b, ghost}
	c.Observe(resources.Event{Kind: resources.EvMessageForwarded, T: 25, Unit: 0, Batch: batch, Hops: 1})
	c.Observe(resources.Event{Kind: resources.EvMessageReceived, T: 30, Unit: 1, Batch: batch, Hops: 1})
	c.Observe(resources.Event{Kind: resources.EvMessageForwarded, T: 33, Unit: 1, Batch: batch, Hops: 2})
	c.Observe(resources.Event{Kind: resources.EvSampleDelivered, T: 40, Sample: a, Dur: 30})
	c.Observe(resources.Event{Kind: resources.EvSampleDelivered, T: 41, Sample: a, Dur: 31}) // injected duplicate: no second flow end
	c.Observe(resources.Event{Kind: resources.EvSampleLost, T: 41, Unit: 1, Sample: b, N: int(procs.LossCrash)})

	var buf bytes.Buffer
	if err := c.Sink.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if _, err := ValidateChrome(strings.NewReader(out)); err != nil {
		t.Fatalf("flow export does not validate: %v\n%s", err, out)
	}
	if got, want := strings.Count(out, `"ph":"s"`), 2; got != want {
		t.Fatalf("%d flow starts, want %d\n%s", got, want, out)
	}
	if got, want := strings.Count(out, `"ph":"f"`), 2; got != want {
		t.Fatalf("%d flow ends, want %d (one per sample, duplicates excluded)\n%s", got, want, out)
	}
	// Each sample's path: forwarded, arrived, re-forwarded = 3 steps.
	if got, want := strings.Count(out, `"ph":"t"`), 6; got != want {
		t.Fatalf("%d flow steps, want %d\n%s", got, want, out)
	}
	if strings.Contains(out, `"id":"n0.p0.s0"`) {
		t.Fatalf("ghost sample (generated pre-trace) got flow events:\n%s", out)
	}
	if !strings.Contains(out, "sample-lost") {
		t.Fatalf("lost sample not in export:\n%s", out)
	}
}

func TestValidateChromeRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"not JSON":                "perfetto",
		"empty array":             "[]",
		"unknown phase":           `[{"name":"x","ph":"Z","ts":0,"pid":1,"tid":1}]`,
		"negative time":           `[{"name":"x","ph":"X","ts":-5,"pid":1,"tid":1}]`,
		"unnamed event":           `[{"ph":"i","ts":0,"pid":1,"tid":1}]`,
		"flow start without id":   `[{"name":"x","ph":"s","ts":0,"pid":1,"tid":1}]`,
		"flow end without start":  `[{"name":"x","ph":"f","ts":0,"pid":1,"tid":1,"id":"a","cat":"c"}]`,
		"flow step without start": `[{"name":"x","ph":"t","ts":0,"pid":1,"tid":1,"id":"a","cat":"c"}]`,
		"flow cat mismatch": `[{"name":"x","ph":"s","ts":0,"pid":1,"tid":1,"id":"a","cat":"c1"},` +
			`{"name":"x","ph":"f","ts":1,"pid":1,"tid":1,"id":"a","cat":"c2"}]`,
		"duplicate flow start": `[{"name":"x","ph":"s","ts":0,"pid":1,"tid":1,"id":"a","cat":"c"},` +
			`{"name":"x","ph":"s","ts":1,"pid":1,"tid":1,"id":"a","cat":"c"}]`,
		"flow ends twice": `[{"name":"x","ph":"s","ts":0,"pid":1,"tid":1,"id":"a","cat":"c"},` +
			`{"name":"x","ph":"f","ts":1,"pid":1,"tid":1,"id":"a","cat":"c"},` +
			`{"name":"x","ph":"f","ts":2,"pid":1,"tid":1,"id":"a","cat":"c"}]`,
	} {
		if _, err := ValidateChrome(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

func TestCollectorMetricsCounters(t *testing.T) {
	c := NewCollector(false, true)
	sample := resources.Sample{GenTime: 1, Node: 0, Proc: 0, Seq: 0}
	c.Observe(resources.Event{Kind: resources.EvSampleGenerated, T: 1, Sample: sample})
	c.Observe(resources.Event{Kind: resources.EvSampleBlocked, T: 1, Sample: sample})
	c.Observe(resources.Event{Kind: resources.EvPipeDropped, T: 2, Unit: 0, Sample: sample})
	c.Observe(resources.Event{Kind: resources.EvBatchCollected, T: 3, Unit: 0, N: 8})
	c.Observe(resources.Event{Kind: resources.EvMessageForwarded, T: 4, Unit: 0, Batch: []resources.Sample{sample}, Hops: 1})
	c.Observe(resources.Event{Kind: resources.EvMessageDelivered, T: 5, N: 8, Hops: 1})
	c.Observe(resources.Event{Kind: resources.EvSampleDelivered, T: 5, Sample: sample, Dur: 4})
	c.Observe(resources.Event{Kind: resources.EvSampleLost, T: 6, Unit: 0, Sample: resources.Sample{Seq: 9}, N: int(procs.LossThinned)})
	c.Observe(resources.Event{Kind: resources.EvDaemonCrash, T: 6, Unit: 0, N: 2})
	c.Observe(resources.Event{Kind: resources.EvRetransmit, T: 7, Unit: 0, N: 1})
	m := c.Metrics
	for _, tc := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"generated", m.Generated.Value(), 1},
		{"blocked_puts", m.BlockedPuts.Value(), 1},
		{"dropped", m.Dropped.Value(), 1},
		{"batches", m.Batches.Value(), 1},
		{"forwards", m.Forwards.Value(), 1},
		{"messages", m.DeliveredMsgs.Value(), 1},
		{"delivered", m.Delivered.Value(), 1},
		{"crashes", m.Crashes.Value(), 1},
		{"retransmits", m.Retransmits.Value(), 1},
		{"lost", m.Lost.Value(), 1},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
	if m.Latency.Count() != 1 || m.Latency.Mean() != 4 {
		t.Errorf("latency histogram count=%d mean=%v, want 1/4", m.Latency.Count(), m.Latency.Mean())
	}
	// Trace half disabled: nothing recorded, nothing panics.
	if c.Sink != nil {
		t.Fatal("trace half should be nil")
	}
}

// observerFunc adapts a function to resources.Observer.
type observerFunc func(resources.Event)

func (f observerFunc) Observe(e resources.Event) { f(e) }

func TestResetAccountingClearsSink(t *testing.T) {
	c := NewCollector(true, true)
	var flow []resources.EventKind
	c.Flow = observerFunc(func(e resources.Event) { flow = append(flow, e.Kind) })
	c.Observe(occ(resources.EvCPUSlice, 0, procs.OwnerApp, 0, 10))
	c.Observe(resources.Event{Kind: resources.EvSampleGenerated, T: 1, Sample: resources.Sample{}})
	c.Metrics.Generated.Add(1)
	c.ResetAccounting()
	if spans, records := c.Sink.Counts(); spans+records != 0 {
		t.Fatal("sink survived ResetAccounting")
	}
	if c.Metrics.Generated.Value() != 0 {
		t.Fatal("metrics survived ResetAccounting")
	}
	// The flow observer sees the stream, then the warmup boundary.
	want := []resources.EventKind{resources.EvCPUSlice, resources.EvSampleGenerated, resources.EvReset}
	if !reflect.DeepEqual(flow, want) {
		t.Fatalf("flow saw %v, want %v", flow, want)
	}
}
