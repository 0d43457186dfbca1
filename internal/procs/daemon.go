package procs

import (
	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// PdDaemon is a Paradyn daemon: it collects instrumentation samples from
// the pipes of its local application processes and forwards them toward
// the main Paradyn process under the CF or BF policy. Under tree
// forwarding a non-leaf daemon additionally receives, merges, and relays
// messages from its children.
//
// The daemon is a single OS process: it does one piece of CPU work at a
// time, and every message costs CPU (collection plus the forwarding system
// call) followed by network occupancy to transmit.
//
// The fault layer (internal/faults) can crash the daemon transiently
// (Crash/Restore) and engage graceful degradation via Thinning; both are
// inert in the fault-free baseline.
//
// Each message comes from a pool (see Messages) and its sample buffer is
// the Batch of the events handed to Obs. The model recycles the message
// after main receipt on its direct delivery path, so observers must not
// keep a batch slice. The work on one message runs as a pdJob drawn from
// the daemon's free list.
type PdDaemon struct {
	Sim *des.Simulator
	CPU *resources.CPU
	Net *resources.Network
	R   *rng.Stream

	Pipes []*resources.Pipe
	Cost  forward.CostModel
	Node  int

	// Strategy schedules forwarding: each time the daemon is free it asks
	// the strategy whether to forward a batch, keep accumulating, or flush
	// everything, and reports completion feedback for every batch it
	// collects locally. Required: the model resolves one per daemon
	// (forward.FromPolicy for the legacy Config fields), and each daemon
	// must own its instance.
	Strategy forward.Strategy

	// Deliver routes a fully transmitted message to its destination (the
	// parent daemon's Receive or the main process); wired up by the model.
	Deliver func(msg *forward.Message)

	// FlushTimeout, when positive, forwards a partial batch if the oldest
	// unforwarded sample has waited this long (microseconds). Zero keeps
	// the pure count-based BF of the paper's model.
	FlushTimeout float64

	// Thinning, when > 1, keeps only one of every Thinning collected
	// samples — the graceful-degradation mechanism the fault layer
	// engages under overload. Thinned samples still free pipe space (the
	// daemon read them); they are just not forwarded. 0 or 1 forwards
	// everything.
	Thinning int

	// Obs, when non-nil, receives the daemon's batch, message, loss and
	// crash events, with Unit set to Node.
	Obs resources.Observer

	// Messages supplies the messages, and their sample buffers, that
	// drain fills. The model shares one pool among its daemons. Nil
	// allocates every message.
	Messages *forward.MessagePool

	busy       bool
	down       bool
	epoch      int32 // bumped on Crash; stale jobs check it
	relayQ     resources.FIFO[*forward.Message]
	jobFree    []*pdJob
	nextPipe   int
	thinSeq    int
	flushTimer *des.Event

	// Metrics.
	MessagesForwarded int
	SamplesForwarded  int // includes relayed samples (counted per hop)
	SamplesCollected  int // distinct samples drained from local pipes
	MessagesMerged    int
	SamplesThinned    int // samples discarded by degradation thinning
	CrashCount        int
	CrashLostSamples  int // samples lost to crashes (relay queue, in-prep batch)
}

// ResetAccounting clears the daemon's metric counters; used for warmup
// (initial-transient) removal.
func (d *PdDaemon) ResetAccounting() {
	d.MessagesForwarded = 0
	d.SamplesForwarded = 0
	d.SamplesCollected = 0
	d.MessagesMerged = 0
	d.SamplesThinned = 0
	d.CrashCount = 0
	d.CrashLostSamples = 0
}

// Start registers the daemon's pipe wake-ups and seeds cost-model-aware
// forwarding strategies.
func (d *PdDaemon) Start() {
	if cs, ok := d.Strategy.(forward.CostSeeder); ok {
		cs.SeedFromCost(d.Cost)
	}
	for _, p := range d.Pipes {
		p.SetOnData(d.Wake)
	}
}

// Down reports whether the daemon is currently crashed.
func (d *PdDaemon) Down() bool { return d.down }

// Crash takes the daemon down transiently. In-memory state is lost: the
// relay queue and any batch whose collection CPU work is in progress are
// discarded (pipes are kernel buffers and survive, as does a message whose
// network transmission already started). Messages arriving while down are
// dropped without acknowledgement, so a resilient uplink retransmits them.
func (d *PdDaemon) Crash() {
	if d.down {
		return
	}
	d.down = true
	d.epoch++
	d.CrashCount++
	lost := 0
	for i := 0; i < d.relayQ.Len(); i++ {
		m := *d.relayQ.At(i)
		lost += len(m.Samples)
		d.lose(LossCrash, m.Samples...)
	}
	d.CrashLostSamples += lost
	d.relayQ.Clear()
	d.cancelFlush()
	d.busy = false
	d.emit(resources.Event{Kind: resources.EvDaemonCrash, N: lost})
}

// Restore brings a crashed daemon back up; it resumes draining its pipes.
func (d *PdDaemon) Restore() {
	if !d.down {
		return
	}
	d.down = false
	d.emit(resources.Event{Kind: resources.EvDaemonRestore})
	d.Wake()
}

// emit reports one daemon event, stamped with the time and the node.
func (d *PdDaemon) emit(e resources.Event) {
	if d.Obs != nil {
		e.T, e.Unit = d.Sim.Now(), d.Node
		d.Obs.Observe(e)
	}
}

// lose reports samples leaving the system at this daemon.
func (d *PdDaemon) lose(reason LossReason, samples ...resources.Sample) {
	for _, s := range samples {
		d.emit(resources.Event{Kind: resources.EvSampleLost, Sample: s, N: int(reason)})
	}
}

// capacity returns the daemon's total buffering — pipe capacities plus
// one blocked writer per pipe — the clamp that keeps any batch target
// reachable so forwarding cannot deadlock.
func (d *PdDaemon) capacity() int {
	capTotal := 0
	for _, p := range d.Pipes {
		capTotal += p.Cap() + 1 // +1: one blocked writer per pipe can refill
	}
	return capTotal
}

func (d *PdDaemon) available() int {
	n := 0
	for _, p := range d.Pipes {
		n += p.Len() + p.Blocked()
	}
	return n
}

// Receive accepts a message from a child daemon (tree forwarding). A
// crashed daemon drops the message (no acknowledgement is generated).
func (d *PdDaemon) Receive(msg *forward.Message) {
	if d.down {
		d.CrashLostSamples += len(msg.Samples)
		d.lose(LossCrash, msg.Samples...)
		return
	}
	d.emit(resources.Event{Kind: resources.EvMessageReceived, Batch: msg.Samples, Hops: msg.Hops})
	d.relayQ.Push(msg)
	d.Wake()
}

// Accept is Receive with delivery feedback for resilient links: it reports
// false — message refused, no ack — while the daemon is down, so the
// sender's retransmission timer covers the outage.
func (d *PdDaemon) Accept(msg *forward.Message) bool {
	if d.down {
		return false
	}
	d.Receive(msg)
	return true
}

// Wake prompts the daemon to look for work. Safe to call at any time.
func (d *PdDaemon) Wake() {
	if d.busy || d.down {
		return
	}
	// Relaying children's data takes priority: it keeps the tree draining.
	if d.relayQ.Len() > 0 {
		j := d.newJob(d.relayQ.Pop(), true, 0)
		d.busy = true
		d.CPU.Submit(OwnerPd, d.Cost.MergeCPU(d.R), j.step)
		return
	}
	capTotal := d.capacity()
	for {
		avail := d.available()
		if avail == 0 {
			break
		}
		act, want := d.Strategy.Decide(d.Sim.Now(), avail, capTotal)
		switch act {
		case forward.Accumulate:
			// Partial batch pending: arm the flush timer if configured.
			if d.FlushTimeout > 0 && d.flushTimer == nil {
				d.flushTimer = d.Sim.Schedule(d.FlushTimeout, d.flush)
			}
			return
		case forward.FlushAll:
			want = avail
		default: // ForwardNow: clamp to what is reachable
			if want < 1 {
				want = 1
			}
			if want > capTotal && capTotal > 0 {
				want = capTotal
			}
		}
		msg := d.drain(want)
		if len(msg.Samples) == 0 {
			d.Messages.Put(msg) // batch fully thinned away; keep draining
			continue
		}
		d.cancelFlush()
		d.collect(msg, capTotal)
		return
	}
}

// collect starts the CPU work of forwarding a locally drained batch.
func (d *PdDaemon) collect(msg *forward.Message, capTotal int) {
	j := d.newJob(msg, false, capTotal)
	d.busy = true
	d.CPU.Submit(OwnerPd, d.Cost.MsgCPU(d.R, len(msg.Samples)), j.step)
}

// pdJob is one message's trip through its daemon: CPU work (collection
// of a local batch, or the merge of a child's message), then network
// transit. Records come from the daemon's free list with their
// continuation bound once, so the forwarding path allocates no closures.
// The crash epoch lives on the record, not the daemon: after a
// crash/restore, a stale CPU completion can still be pending alongside a
// new job's.
//
// A saturated network queues one job per waiting message, so the record
// is kept small: one continuation serves both stages, and the counters
// are 32-bit.
type pdJob struct {
	msg      *forward.Message
	step     func() // calls d.jobStep(this); bound once
	epoch    int32  // daemon epoch at submission
	capTotal int32  // capacity at drain time, for strategy feedback
	relay    bool   // merging a child's message (else a local batch)
	onNet    bool   // CPU work done, message in network transit
}

func (d *PdDaemon) newJob(msg *forward.Message, relay bool, capTotal int) *pdJob {
	var j *pdJob
	if n := len(d.jobFree); n > 0 {
		j = d.jobFree[n-1]
		d.jobFree[n-1] = nil
		d.jobFree = d.jobFree[:n-1]
	} else {
		j = &pdJob{}
		j.step = func() { d.jobStep(j) }
	}
	j.msg, j.relay, j.capTotal, j.epoch = msg, relay, int32(capTotal), d.epoch
	j.onNet = false
	return j
}

func (d *PdDaemon) releaseJob(j *pdJob) {
	j.msg = nil
	d.jobFree = append(d.jobFree, j)
}

// jobStep runs at the completion of a job's current stage.
func (d *PdDaemon) jobStep(j *pdJob) {
	if j.onNet {
		d.jobNetDone(j)
	} else {
		d.jobCPUDone(j)
	}
}

// jobCPUDone runs when a job's CPU work completes: unless the daemon
// crashed meanwhile (the message is lost), the message goes onto the
// network and the daemon looks for more work.
func (d *PdDaemon) jobCPUDone(j *pdJob) {
	msg := j.msg
	if d.epoch != j.epoch { // crashed mid-collection or mid-merge
		d.CrashLostSamples += len(msg.Samples)
		d.lose(LossCrash, msg.Samples...)
		d.releaseJob(j)
		return
	}
	if j.relay {
		d.MessagesMerged++
		msg.Hops++
	} else {
		d.observe(msg.Samples, int(j.capTotal))
	}
	d.send(j)
	d.busy = false
	d.Wake()
}

// jobNetDone runs when a job's network transmission completes and hands
// the message to its destination.
func (d *PdDaemon) jobNetDone(j *pdJob) {
	msg := j.msg
	d.releaseJob(j)
	if d.Deliver != nil {
		d.Deliver(msg)
	}
}

// observe reports one locally collected batch's completion feedback to
// the strategy, at the simulated instant the message is handed to the
// network. Every input is a simulated-clock or buffer-state quantity, so
// feedback-driven strategies remain byte-reproducible.
func (d *PdDaemon) observe(batch []resources.Sample, capTotal int) {
	now := d.Sim.Now()
	newest, oldest := batch[0].GenTime, batch[0].GenTime
	for _, s := range batch[1:] {
		if s.GenTime > newest {
			newest = s.GenTime
		}
		if s.GenTime < oldest {
			oldest = s.GenTime
		}
	}
	d.Strategy.Observe(forward.Feedback{
		Now:         now,
		Samples:     len(batch),
		NewestAgeUS: now - newest,
		OldestAgeUS: now - oldest,
		Buffered:    d.available(),
		Capacity:    capTotal,
	})
}

// flush forwards whatever samples are buffered, regardless of batch size.
func (d *PdDaemon) flush() {
	d.flushTimer = nil
	if d.busy || d.down || d.available() == 0 {
		return
	}
	msg := d.drain(d.available())
	if len(msg.Samples) == 0 {
		d.Messages.Put(msg)
		return
	}
	d.collect(msg, d.capacity())
}

func (d *PdDaemon) cancelFlush() {
	if d.flushTimer != nil {
		d.flushTimer.Cancel()
		d.flushTimer = nil
	}
}

// drain gathers up to want samples round-robin across the daemon's pipes
// into a message from the pool, then applies degradation thinning to the
// collected batch.
func (d *PdDaemon) drain(want int) *forward.Message {
	msg := d.Messages.Get()
	msg.FromNode, msg.Hops = d.Node, 1
	if len(d.Pipes) == 0 {
		return msg
	}
	out := msg.Samples
	empty := 0
	for len(out) < want && empty < len(d.Pipes) {
		p := d.Pipes[d.nextPipe%len(d.Pipes)]
		d.nextPipe++
		if s, ok := p.Get(); ok {
			out = append(out, s)
			empty = 0
		} else {
			empty++
		}
	}
	d.SamplesCollected += len(out)
	if d.Thinning > 1 {
		kept := out[:0]
		for _, s := range out {
			if d.thinSeq%d.Thinning == 0 {
				kept = append(kept, s)
			} else {
				d.lose(LossThinned, s)
			}
			d.thinSeq++
		}
		d.SamplesThinned += len(out) - len(kept)
		out = kept
	}
	if len(out) > 0 {
		d.emit(resources.Event{Kind: resources.EvBatchCollected, N: len(out)})
	}
	msg.Samples = out
	return msg
}

// send transmits a job's message over the network; delivery happens when
// the network occupancy completes.
func (d *PdDaemon) send(j *pdJob) {
	msg := j.msg
	d.MessagesForwarded++
	d.SamplesForwarded += len(msg.Samples)
	d.emit(resources.Event{Kind: resources.EvMessageForwarded, Batch: msg.Samples, Hops: msg.Hops})
	netLen := d.Cost.MsgNet(d.R, len(msg.Samples))
	j.onNet = true
	d.Net.Submit(OwnerPd, netLen, j.step)
}
