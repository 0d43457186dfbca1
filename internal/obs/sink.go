package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/trace"
)

// OccSpan is one resource-occupancy interval: the simulated counterpart of
// an AIX kernel-trace record, tagged with which CPU (unit) produced it.
type OccSpan struct {
	Kind    resources.EventKind // EvCPUSlice or EvNetTransfer
	Unit    int                 // CPU index (node order, host CPU last); 0 for the network
	Owner   string
	StartUS float64
	DurUS   float64
}

// Record is the sink's compact stored form of one lifecycle event. Field
// use varies by Kind:
//
//   - Node/Proc/Seq identify the sample for per-sample kinds (generated,
//     pipe put/block/drop/get, delivered, lost) and Node is the daemon's
//     node for daemon-scoped kinds (batch, forward, crash, restore,
//     retransmit).
//   - Unit is the pipe ID for pipe kinds and the daemon's node for
//     EvSampleForwarded, EvSampleArrived and EvSampleLost.
//   - DurUS is the end-to-end latency for EvSampleDelivered (whose TUS is
//     the sample's generation time, so the record renders as a span).
//   - N and Hops are the event's count and forwarding depth (see
//     resources.Event).
type Record struct {
	Kind  resources.EventKind
	TUS   float64
	DurUS float64
	Unit  int
	Node  int
	Proc  int
	Seq   int
	N     int
	Hops  int
}

// blockLen is the number of entries in one trace block.
const blockLen = 4096

// blocks is an append-only store of fixed-length blocks. A new block is
// allocated only when the last one is full, so storing an entry never
// copies the ones already stored: a trace of n entries allocates about
// n entries. One slice grown by append would allocate about 5n and copy
// about 4n, since append grows a large slice by about 1.25x per step.
type blocks[T any] struct {
	b [][]T // every block but the last holds exactly blockLen entries
	n int
}

// push appends v.
func (s *blocks[T]) push(v T) {
	if len(s.b) == 0 || len(s.b[len(s.b)-1]) == blockLen {
		s.b = append(s.b, make([]T, 0, blockLen))
	}
	last := &s.b[len(s.b)-1]
	*last = append(*last, v)
	s.n++
}

// TraceSink records occupancy spans and lifecycle records from one run,
// each kind in its own block store (see blocks), in recorded order. It
// is filled synchronously from the single simulation goroutine; no
// locking. Exporters read it after the run, iterating the blocks in
// place.
type TraceSink struct {
	spans  blocks[OccSpan]
	events blocks[Record]
}

// NewTraceSink returns an empty sink.
func NewTraceSink() *TraceSink { return &TraceSink{} }

// add stores one event of the stream: occupancy kinds as spans, message
// kinds as one record per sample (plus the message's own record when
// forwarded), everything else as one record.
func (s *TraceSink) add(e *resources.Event) {
	switch e.Kind {
	case resources.EvCPUSlice, resources.EvNetTransfer:
		s.spans.push(OccSpan{Kind: e.Kind, Unit: e.Unit, Owner: e.Owner, StartUS: e.T - e.Dur, DurUS: e.Dur})
	case resources.EvMessageForwarded:
		s.events.push(Record{Kind: e.Kind, TUS: e.T, Node: e.Unit, N: len(e.Batch), Hops: e.Hops})
		s.addSamples(resources.EvSampleForwarded, e)
	case resources.EvMessageReceived:
		s.addSamples(resources.EvSampleArrived, e)
	case resources.EvBatchCollected, resources.EvDaemonCrash, resources.EvDaemonRestore, resources.EvRetransmit:
		s.events.push(Record{Kind: e.Kind, TUS: e.T, Node: e.Unit, N: e.N})
	case resources.EvSampleDelivered:
		smp := e.Sample
		s.events.push(Record{Kind: e.Kind, TUS: smp.GenTime, DurUS: e.Dur, Node: smp.Node, Proc: smp.Proc, Seq: smp.Seq})
	default:
		smp := e.Sample
		s.events.push(Record{Kind: e.Kind, TUS: e.T, Unit: e.Unit, Node: smp.Node, Proc: smp.Proc, Seq: smp.Seq, N: e.N, Hops: e.Hops})
	}
}

// addSamples stores one kind record per sample of a message event.
func (s *TraceSink) addSamples(kind resources.EventKind, e *resources.Event) {
	for _, smp := range e.Batch {
		s.events.push(Record{Kind: kind, TUS: e.T, Unit: e.Unit, Node: smp.Node, Proc: smp.Proc, Seq: smp.Seq, Hops: e.Hops})
	}
}

// Reset discards everything recorded so far (warmup removal), dropping
// the blocks.
func (s *TraceSink) Reset() { *s = TraceSink{} }

// Counts returns the number of recorded spans and lifecycle records.
func (s *TraceSink) Counts() (spans, records int) { return s.spans.n, s.events.n }

// classPID maps a resource-accounting owner class to the Table 1 trace
// label and its PID base (one PID block per class; unit offsets within).
var classPID = map[string]struct {
	label string
	base  int
}{
	procs.OwnerApp:   {trace.ProcApplication, 100},
	procs.OwnerPd:    {trace.ProcPd, 200},
	procs.OwnerPvm:   {trace.ProcPvmd, 300},
	procs.OwnerOther: {trace.ProcOther, 400},
	procs.OwnerMain:  {trace.ProcParadyn, 500},
}

// TraceRecords exports the occupancy spans in internal/trace.Record form,
// sorted by start time, so rocctrace and the workload-characterization
// pipeline can analyze a simulated run exactly like a measured AIX trace.
// It covers every CPU in the model, so per-class totals match the run's
// aggregate Result accounting. Owners outside the Table 1 classes keep
// their own name as the label, in PID block 900.
func (s *TraceSink) TraceRecords() []trace.Record {
	recs := make([]trace.Record, 0, s.spans.n)
	for _, blk := range s.spans.b {
		for _, sp := range blk {
			info, ok := classPID[sp.Owner]
			if !ok {
				info.label, info.base = sp.Owner, 900
			}
			res := trace.CPU
			if sp.Kind == resources.EvNetTransfer {
				res = trace.Network
			}
			recs = append(recs, trace.Record{
				StartUS:    sp.StartUS,
				PID:        info.base + sp.Unit,
				Process:    info.label,
				Resource:   res,
				DurationUS: sp.DurUS,
			})
		}
	}
	trace.SortByTime(recs)
	return recs
}

// Chrome trace-event JSON (the catapult format Perfetto and
// chrome://tracing load). Sim time is already in microseconds — exactly
// the format's ts unit — so timestamps pass through unscaled. The pid
// axis groups tracks: one pid per CPU, one for the network, one per
// node's sample lifecycle, one per pipe.
const (
	chromePIDNet = 999
	chromePIDCPU = 1000 // + CPU unit
	// ChromePIDSample is the pid base of the per-node sample-lifecycle
	// tracks (pid = ChromePIDSample + node). Exported so trace consumers
	// (roccviz -lat) can recover a delivered sample's node from its span.
	ChromePIDSample = 2000
	chromePIDPipe   = 4000 // + pipe ID
)

// ChromeEvent is one trace-event object, the one event type behind every
// Chrome trace this project writes (a run's trace here, a sweep's
// timeline in internal/dist). Fields follow the Trace Event Format spec:
// ph "X" = complete (ts+dur), "i" = instant, "M" = metadata,
// "s"/"t"/"f" = flow start/step/end (ID binds the flow; BP "e" makes the
// flow end bind to the enclosing slice).
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// flowCat is the category of sample-path flow events; flowID is the
// per-sample flow binding (unique because Seq never resets).
const flowCat = "sampleflow"

func flowID(node, proc, seq int) string {
	return fmt.Sprintf("n%d.p%d.s%d", node, proc, seq)
}

// ownerTID gives each owner class a stable thread row within a CPU track.
func ownerTID(owner string) int {
	switch owner {
	case procs.OwnerApp:
		return 1
	case procs.OwnerPd:
		return 2
	case procs.OwnerPvm:
		return 3
	case procs.OwnerOther:
		return 4
	case procs.OwnerMain:
		return 5
	}
	return 9
}

// WriteChrome exports the run as Chrome trace-event JSON: one "X"
// (complete) event per occupancy span and per delivered sample, one "i"
// (instant) event per lifecycle event, "M" process_name metadata so
// Perfetto labels the tracks, and "s"/"t"/"f" flow events linking each
// sample's spans across pipe→daemon→network→main so viewers render
// end-to-end arrows. Flow events are emitted only for samples whose
// generation is in the trace (warmup-truncated paths would otherwise
// produce flow steps with no start), and each flow ends at most once
// (first delivery or loss wins; injected duplicates add no second end).
func (s *TraceSink) WriteChrome(w io.Writer) error {
	events := make([]ChromeEvent, 0, s.spans.n+s.events.n+16)
	named := map[int]string{}
	name := func(pid int, label string) {
		if _, ok := named[pid]; !ok {
			named[pid] = label
			events = append(events, ChromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": label},
			})
		}
	}
	gen := map[string]bool{}
	for _, blk := range s.events.b {
		for _, e := range blk {
			if e.Kind == resources.EvSampleGenerated {
				gen[flowID(e.Node, e.Proc, e.Seq)] = true
			}
		}
	}
	ended := map[string]bool{}
	for _, blk := range s.spans.b {
		for _, sp := range blk {
			pid, cat := chromePIDNet, "net"
			if sp.Kind == resources.EvCPUSlice {
				pid, cat = chromePIDCPU+sp.Unit, "cpu"
				name(pid, fmt.Sprintf("cpu %d", sp.Unit))
			} else {
				name(pid, "network")
			}
			events = append(events, ChromeEvent{
				Name: sp.Owner, Cat: cat, Ph: "X",
				TS: sp.StartUS, Dur: sp.DurUS,
				PID: pid, TID: ownerTID(sp.Owner),
			})
		}
	}
	for _, blk := range s.events.b {
		for _, e := range blk {
			switch e.Kind {
			case resources.EvSampleGenerated:
				pid := ChromePIDSample + e.Node
				name(pid, fmt.Sprintf("node %d samples", e.Node))
				events = append(events, ChromeEvent{
					Name: e.Kind.String(), Cat: "lifecycle", Ph: "i",
					TS: e.TUS, PID: pid, TID: 1, S: "t",
					Args: map[string]any{"n": e.N, "hops": e.Hops},
				})
				events = append(events, ChromeEvent{
					Name: "sample path", Cat: flowCat, Ph: "s",
					TS: e.TUS, PID: pid, TID: 1,
					ID:   flowID(e.Node, e.Proc, e.Seq),
					Args: map[string]any{"node": e.Node, "proc": e.Proc, "seq": e.Seq},
				})
			case resources.EvSampleForwarded, resources.EvSampleArrived:
				id := flowID(e.Node, e.Proc, e.Seq)
				if !gen[id] {
					continue
				}
				pid := ChromePIDSample + e.Node
				name(pid, fmt.Sprintf("node %d samples", e.Node))
				events = append(events, ChromeEvent{
					Name: e.Kind.String(), Cat: flowCat, Ph: "t",
					TS: e.TUS, PID: pid, TID: 1, ID: id,
					Args: map[string]any{"pd": e.Unit, "hops": e.Hops},
				})
			case resources.EvSampleLost:
				pid := ChromePIDSample + e.Node
				name(pid, fmt.Sprintf("node %d samples", e.Node))
				events = append(events, ChromeEvent{
					Name: e.Kind.String(), Cat: "lifecycle", Ph: "i",
					TS: e.TUS, PID: pid, TID: 1, S: "t",
					Args: map[string]any{"reason": procs.LossReason(e.N).String(), "pd": e.Unit},
				})
				id := flowID(e.Node, e.Proc, e.Seq)
				if gen[id] && !ended[id] {
					ended[id] = true
					events = append(events, ChromeEvent{
						Name: "sample path", Cat: flowCat, Ph: "f",
						TS: e.TUS, PID: pid, TID: 1, ID: id, BP: "e",
					})
				}
			case resources.EvSampleDelivered:
				pid := ChromePIDSample + e.Node
				name(pid, fmt.Sprintf("node %d samples", e.Node))
				events = append(events, ChromeEvent{
					Name: fmt.Sprintf("sample p%d #%d", e.Proc, e.Seq),
					Cat:  "sample", Ph: "X",
					TS: e.TUS, Dur: e.DurUS,
					PID: pid, TID: 1 + e.Proc,
					Args: map[string]any{"latency_us": e.DurUS},
				})
				id := flowID(e.Node, e.Proc, e.Seq)
				if gen[id] && !ended[id] {
					ended[id] = true
					events = append(events, ChromeEvent{
						Name: "sample path", Cat: flowCat, Ph: "f",
						TS: e.TUS + e.DurUS, PID: pid, TID: 1 + e.Proc, ID: id, BP: "e",
					})
				}
			case resources.EvPipePut, resources.EvPipeBlocked, resources.EvPipeDropped, resources.EvPipeGet:
				pid := chromePIDPipe + e.Unit
				name(pid, fmt.Sprintf("pipe %d", e.Unit))
				events = append(events, ChromeEvent{
					Name: e.Kind.String(), Cat: "pipe", Ph: "i",
					TS: e.TUS, PID: pid, TID: 1, S: "t",
					Args: map[string]any{"node": e.Node, "proc": e.Proc, "seq": e.Seq, "n": e.N},
				})
			default:
				pid := ChromePIDSample + e.Node
				name(pid, fmt.Sprintf("node %d samples", e.Node))
				events = append(events, ChromeEvent{
					Name: e.Kind.String(), Cat: "lifecycle", Ph: "i",
					TS: e.TUS, PID: pid, TID: 1, S: "t",
					Args: map[string]any{"n": e.N, "hops": e.Hops},
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// ValidateChrome parses Chrome trace-event JSON produced by WriteChrome
// (or any conforming array-form trace) and returns the event count. It
// checks the structural invariants a viewer relies on: a non-empty array,
// a known phase on every event, non-negative timestamps and durations,
// and well-formed flows — every "s"/"t"/"f" carries an id, each (cat, id)
// starts exactly once, steps and ends have a matching start with the same
// cat, and no flow ends twice. Used by the CI trace-export smoke step and
// roccviz -check.
func ValidateChrome(r io.Reader) (int, error) {
	var events []ChromeEvent
	dec := json.NewDecoder(r)
	if err := dec.Decode(&events); err != nil {
		return 0, fmt.Errorf("obs: not a trace-event JSON array: %w", err)
	}
	if len(events) == 0 {
		return 0, fmt.Errorf("obs: trace contains no events")
	}
	type flowKey struct{ cat, id string }
	starts := map[flowKey]bool{}
	for i, e := range events {
		if e.Ph == "s" {
			if e.ID == "" {
				return 0, fmt.Errorf("obs: event %d: flow start without id", i)
			}
			k := flowKey{e.Cat, e.ID}
			if starts[k] {
				return 0, fmt.Errorf("obs: event %d: duplicate flow start %s/%s", i, e.Cat, e.ID)
			}
			starts[k] = true
		}
	}
	ended := map[flowKey]bool{}
	for i, e := range events {
		switch e.Ph {
		case "X", "i", "M", "B", "E", "C", "s":
		case "t", "f":
			if e.ID == "" {
				return 0, fmt.Errorf("obs: event %d: flow %q without id", i, e.Ph)
			}
			k := flowKey{e.Cat, e.ID}
			if !starts[k] {
				return 0, fmt.Errorf("obs: event %d: flow %q %s/%s has no matching start", i, e.Ph, e.Cat, e.ID)
			}
			if e.Ph == "f" {
				if ended[k] {
					return 0, fmt.Errorf("obs: event %d: flow %s/%s ends twice", i, e.Cat, e.ID)
				}
				ended[k] = true
			}
		default:
			return 0, fmt.Errorf("obs: event %d: unknown phase %q", i, e.Ph)
		}
		if e.Ph != "M" && e.Name == "" {
			return 0, fmt.Errorf("obs: event %d: missing name", i)
		}
		if e.TS < 0 || e.Dur < 0 {
			return 0, fmt.Errorf("obs: event %d: negative time", i)
		}
	}
	return len(events), nil
}
