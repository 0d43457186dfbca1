package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rocc/internal/core"
	"rocc/internal/obs"
	"rocc/internal/obs/prov"
	"rocc/internal/procs"
	"rocc/internal/report"
	"rocc/internal/resources"
)

// Offline latency decomposition: roccviz -lat decodes an exported Chrome
// trace back into the resources.Event stream the live provenance engine
// (internal/obs/prov) observed during the run and feeds it, in trace
// order, to a fresh prov.Engine — no re-simulation and no second copy of
// the stage state machine. WriteChrome's events carry every field those
// events need: the "s" flow start is generation,
// pipe-put/pipe-get/pipe-dropped instants name the sample,
// "sample-forwarded"/"sample-arrived" flow steps carry the daemon and hop
// count, the delivered sample's "X" span has ts = generation and dur =
// latency, and an "f" flow end with no delivery is a loss (its reason on
// the "sample-lost" instant just before it). A warmup-free trace
// therefore replays into exactly the live engine's Stages(); deliveries
// whose generation precedes the trace (warmup removal) are counted as
// incomplete and not decomposed.

// latEvent is the subset of a Chrome trace event the replay reads. Args
// uses pointers so "present with value 0" is distinguishable from
// "absent".
type latEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	ID   string  `json:"id"`
	Args struct {
		Node   *int    `json:"node"`
		Proc   *int    `json:"proc"`
		Seq    *int    `json:"seq"`
		Pd     *int    `json:"pd"`
		Hops   *int    `json:"hops"`
		Reason *string `json:"reason"`
	} `json:"args"`
}

// latKey is a sample's identity (Seq never resets, so it is unique).
type latKey struct{ node, proc, seq int }

func parseFlowID(id string) (latKey, bool) {
	var k latKey
	if _, err := fmt.Sscanf(id, "n%d.p%d.s%d", &k.node, &k.proc, &k.seq); err != nil {
		return latKey{}, false
	}
	return k, true
}

// lossReason maps a "sample-lost" instant's reason label back to its
// procs.LossReason (-1 when absent or unknown).
func lossReason(label *string) procs.LossReason {
	for r := procs.LossThinned; label != nil && r <= procs.LossGiveUp; r++ {
		if r.String() == *label {
			return r
		}
	}
	return -1
}

// replayLatency feeds a Chrome trace to a fresh provenance engine and
// also returns how many delivered paths it could not decompose. Events
// are replayed in array order, which WriteChrome guarantees is
// simulation-event order.
func replayLatency(r io.Reader) (eng *prov.Engine, incomplete int, err error) {
	var events []latEvent
	if err := json.NewDecoder(r).Decode(&events); err != nil {
		return nil, 0, fmt.Errorf("not a trace-event JSON array: %w", err)
	}

	// Pass 1: generation instants, and first-hop batches. The engine
	// needs a sample's generation time from its first event, which for
	// pipe events precedes the "s" flow start; and it needs each
	// message's whole batch at once. All hops==1 forward steps of one
	// message share (pd, ts).
	type groupKey struct {
		pd int
		ts float64
	}
	gen := map[latKey]float64{}
	batches := map[groupKey][]resources.Sample{}
	for _, e := range events {
		if e.Cat != "sampleflow" {
			continue
		}
		k, ok := parseFlowID(e.ID)
		if !ok {
			continue
		}
		switch {
		case e.Ph == "s":
			gen[k] = e.TS
		case e.Ph == "t" && e.Name == "sample-forwarded" &&
			e.Args.Hops != nil && *e.Args.Hops == 1 && e.Args.Pd != nil:
			gk := groupKey{*e.Args.Pd, e.TS}
			batches[gk] = append(batches[gk], resources.Sample{Node: k.node, Proc: k.proc, Seq: k.seq, GenTime: gen[k]})
		}
	}
	sample := func(k latKey) (resources.Sample, bool) {
		t, ok := gen[k]
		return resources.Sample{Node: k.node, Proc: k.proc, Seq: k.seq, GenTime: t}, ok
	}

	// Pass 2: replay the event stream in trace order.
	eng = prov.NewEngine()
	closed := map[latKey]bool{} // delivered, or counted incomplete
	var lost latEvent           // the latest "sample-lost" instant
	for _, e := range events {
		switch {
		case e.Ph == "s" && e.Cat == "sampleflow":
			if k, ok := parseFlowID(e.ID); ok {
				s, _ := sample(k)
				eng.Observe(resources.Event{Kind: resources.EvSampleGenerated, T: e.TS, Sample: s})
			}
		case e.Cat == "pipe" && e.Args.Node != nil && e.Args.Proc != nil && e.Args.Seq != nil:
			s, ok := sample(latKey{*e.Args.Node, *e.Args.Proc, *e.Args.Seq})
			if !ok {
				continue // generated before the trace starts
			}
			for _, kind := range []resources.EventKind{resources.EvPipePut, resources.EvPipeGet, resources.EvPipeDropped} {
				if e.Name == kind.String() {
					eng.Observe(resources.Event{Kind: kind, T: e.TS, Sample: s})
				}
			}
		case e.Ph == "t" && e.Cat == "sampleflow" && e.Args.Hops != nil && e.Args.Pd != nil:
			k, ok := parseFlowID(e.ID)
			if !ok {
				continue
			}
			s, _ := sample(k)
			ev := resources.Event{Kind: resources.EvMessageForwarded, T: e.TS, Unit: *e.Args.Pd,
				Batch: []resources.Sample{s}, Hops: *e.Args.Hops}
			switch {
			case e.Name == "sample-forwarded" && ev.Hops == 1:
				gk := groupKey{ev.Unit, e.TS}
				if batch, ok := batches[gk]; ok { // first step of the message
					delete(batches, gk)
					ev.Batch = batch
					eng.Observe(ev)
				}
			case e.Name == "sample-forwarded":
				eng.Observe(ev)
			case e.Name == "sample-arrived":
				ev.Kind = resources.EvMessageReceived
				eng.Observe(ev)
			}
		case e.Ph == "i" && e.Name == "sample-lost":
			lost = e
		case e.Ph == "X" && e.Cat == "sample":
			var proc, seq int
			if _, err := fmt.Sscanf(e.Name, "sample p%d #%d", &proc, &seq); err != nil {
				continue
			}
			k := latKey{e.PID - obs.ChromePIDSample, proc, seq}
			s, ok := sample(k)
			if !ok {
				if !closed[k] { // warmup-truncated path: count it once
					closed[k] = true
					incomplete++
				}
				continue
			}
			closed[k] = true
			eng.Observe(resources.Event{Kind: resources.EvSampleDelivered, T: e.TS + e.Dur, Sample: s, Dur: e.Dur})
		case e.Ph == "f" && e.Cat == "sampleflow":
			// A flow ends at its first delivery or loss; one with no
			// delivery before it is a loss.
			if k, ok := parseFlowID(e.ID); ok && !closed[k] {
				s, _ := sample(k)
				ev := resources.Event{Kind: resources.EvSampleLost, T: e.TS, Sample: s, N: int(lossReason(lost.Args.Reason))}
				if lost.Args.Pd != nil {
					ev.Unit = *lost.Args.Pd
				}
				eng.Observe(ev)
			}
		}
	}
	return eng, incomplete, nil
}

// runLat is the -lat entry point: replay and render.
func runLat(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	eng, incomplete, err := replayLatency(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if eng.Delivered() == 0 {
		return fmt.Errorf("%s: no decomposable delivered samples in trace", path)
	}
	wf := report.Waterfall{
		Title: fmt.Sprintf("latency decomposition reconstructed from %s", path),
		Rows:  core.StageRows(core.StageLatencies(eng.Stages())),
	}
	if err := wf.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("%d delivered samples decomposed (%d lost, %d dropped, %d duplicate deliveries, %d incomplete); max closure error %.3g us\n",
		eng.Delivered(), eng.LostTotal(), eng.Dropped(), eng.DupDelivered(), incomplete, eng.MaxCloseErrUS())
	return nil
}
