package faults

import (
	"math"

	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// Link is one daemon uplink (to a parent daemon or to the main process)
// with fault injection and, optionally, ack/timeout/retransmission. It
// sits between a daemon's network-transmission completion and the
// destination's receive: the model routes each transmitted message
// through Send instead of delivering it directly.
//
// With Resilience.Retransmit enabled, each message gets a link-local id;
// the receiver acknowledges delivery (acks travel back after AckDelay and
// may themselves be lost), and an unacknowledged message is retransmitted
// after an exponentially backed-off timeout, up to RetryBudget times.
// Retransmissions re-occupy the network (the sender pays the transit cost
// again) and the receiver discards duplicates by id, so at-most-once
// delivery is preserved end to end.
type Link struct {
	sim  *des.Simulator
	plan *Plan
	node int // sending node, for accounting and cost streams

	net  *resources.Network
	cost forward.CostModel

	r     *rng.Stream // fault decisions (loss/dup/delay/ack-loss)
	costR *rng.Stream // retransmission network-cost draws

	// dst delivers a message to the receiver; it reports false when the
	// receiver refused it (crashed daemon), which suppresses the ack so
	// the retransmission timer covers the outage.
	dst func(msg *forward.Message) bool

	// obs, when non-nil, receives the link's retransmission and loss
	// events, with Unit set to the sending node.
	obs resources.Observer

	nextID    uint64
	pending   map[uint64]*pendingMsg
	delivered map[uint64]bool

	// Accounting.
	LossInjected  int // deliveries destroyed in transit
	DupInjected   int // extra deliveries injected
	DelayInjected int // deliveries given an extra transit delay
	AcksLost      int // acknowledgements destroyed
	Retransmits   int // retransmission attempts made
	GiveUps       int // messages abandoned after the retry budget
	SamplesLost   int // samples in messages lost for good on this link
	DupDiscarded  int // duplicate deliveries suppressed at the receiver

	recovered    int     // messages that needed >= 1 retransmission to arrive
	recoveredSum float64 // total first-send-to-ack time of recovered messages
	recoveredMax float64
}

type pendingMsg struct {
	msg       *forward.Message
	firstSent des.Time
	attempts  int // retransmissions so far (0 = only the original send)
	timer     *des.Event
}

// NewLink creates an uplink for the daemon on node. idx disambiguates
// multiple links per node (unused today; every node has one uplink). dst
// delivers to the receiver and reports acceptance.
func (inj *Injector) NewLink(node, idx int, net *resources.Network, cost forward.CostModel, dst func(*forward.Message) bool) *Link {
	l := &Link{
		sim:   inj.Sim,
		plan:  &inj.Plan,
		node:  node,
		net:   net,
		cost:  cost,
		r:     inj.root.Derive(streamID(streamLink, node, idx)),
		costR: inj.root.Derive(streamID(streamLinkCost, node, idx)),
		dst:   dst,
	}
	if inj.Plan.Resilience.Retransmit {
		l.pending = make(map[uint64]*pendingMsg)
		l.delivered = make(map[uint64]bool)
	}
	inj.Links = append(inj.Links, l)
	return l
}

// Pending returns the number of unacknowledged messages (the retry
// queue); the degradation controller watches this as a pressure signal.
func (l *Link) Pending() int { return len(l.pending) }

// ResetAccounting clears the link's counters without disturbing pending
// retransmissions.
func (l *Link) ResetAccounting() {
	l.LossInjected, l.DupInjected, l.DelayInjected, l.AcksLost = 0, 0, 0, 0
	l.Retransmits, l.GiveUps, l.SamplesLost, l.DupDiscarded = 0, 0, 0, 0
	l.recovered, l.recoveredSum, l.recoveredMax = 0, 0, 0
}

// Send routes one transmitted message through the link's fault filter
// toward the receiver. Called when the sender's network occupancy for the
// original transmission completes.
func (l *Link) Send(msg *forward.Message) {
	id := l.nextID
	l.nextID++
	if l.pending != nil {
		l.pending[id] = &pendingMsg{msg: msg, firstSent: l.sim.Now()}
	}
	l.attempt(id, msg, 0)
}

// attempt is one delivery try: the fault filter may destroy, duplicate,
// or delay it. With retransmission enabled, an RTO timer backs the try.
func (l *Link) attempt(id uint64, msg *forward.Message, attempt int) {
	lost := l.plan.Loss > 0 && l.r.Bernoulli(l.plan.Loss)
	if lost {
		l.LossInjected++
		if l.pending == nil {
			l.SamplesLost += len(msg.Samples) // unprotected: gone for good
			l.lose(procs.LossLink, msg.Samples...)
		}
	} else {
		delay := des.Time(0)
		if l.plan.DelayProb > 0 && l.r.Bernoulli(l.plan.DelayProb) {
			l.DelayInjected++
			delay = l.plan.Delay.Sample(l.r)
		}
		l.deliverAfter(delay, id, msg)
		if l.plan.Dup > 0 && l.r.Bernoulli(l.plan.Dup) {
			l.DupInjected++
			l.deliverAfter(delay, id, cloneMsg(msg))
		}
	}
	if l.pending != nil {
		if p, ok := l.pending[id]; ok {
			rto := l.plan.Resilience.RTO * math.Pow(l.plan.Resilience.Backoff, float64(attempt))
			p.timer = l.sim.Schedule(rto, func() { l.timeout(id) })
		}
	}
}

func (l *Link) deliverAfter(delay des.Time, id uint64, msg *forward.Message) {
	if delay > 0 {
		l.sim.Schedule(delay, func() { l.arrive(id, msg) })
		return
	}
	l.arrive(id, msg)
}

// arrive is a delivery reaching the receiver's side of the link.
func (l *Link) arrive(id uint64, msg *forward.Message) {
	if l.delivered != nil && l.delivered[id] {
		// Duplicate (injected, or a retransmission racing its original):
		// discard, but re-ack in case the earlier ack was lost.
		l.DupDiscarded++
		l.sendAck(id)
		return
	}
	if !l.dst(msg) {
		// Receiver down: with retransmission the timer covers the outage;
		// unprotected, the message is gone for good. The existing
		// SamplesLost counter deliberately stays untouched on the
		// unprotected path (it predates this hook), but provenance needs
		// the closure.
		if l.pending == nil {
			l.lose(procs.LossCrash, msg.Samples...)
		}
		return
	}
	if l.delivered != nil {
		l.delivered[id] = true
		l.sendAck(id)
	}
}

func (l *Link) sendAck(id uint64) {
	if l.pending == nil {
		return
	}
	if l.plan.AckLoss > 0 && l.r.Bernoulli(l.plan.AckLoss) {
		l.AcksLost++
		return
	}
	l.sim.Schedule(l.plan.Resilience.AckDelay, func() { l.ack(id) })
}

func (l *Link) ack(id uint64) {
	p, ok := l.pending[id]
	if !ok {
		return
	}
	delete(l.pending, id)
	if p.timer != nil {
		p.timer.Cancel()
	}
	if p.attempts > 0 {
		l.recovered++
		rt := l.sim.Now() - p.firstSent
		l.recoveredSum += rt
		if rt > l.recoveredMax {
			l.recoveredMax = rt
		}
	}
}

// timeout fires when a delivery attempt went unacknowledged.
func (l *Link) timeout(id uint64) {
	p, ok := l.pending[id]
	if !ok {
		return
	}
	p.timer = nil
	if p.attempts >= l.plan.Resilience.RetryBudget {
		delete(l.pending, id)
		l.GiveUps++
		l.SamplesLost += len(p.msg.Samples)
		l.lose(procs.LossGiveUp, p.msg.Samples...)
		return
	}
	p.attempts++
	l.Retransmits++
	attempt := p.attempts
	if l.obs != nil {
		l.obs.Observe(resources.Event{Kind: resources.EvRetransmit, T: l.sim.Now(), Unit: l.node, N: attempt})
	}
	// The retransmission re-occupies the network for a fresh transit cost.
	l.net.Submit(procs.OwnerPd, l.cost.MsgNet(l.costR, len(p.msg.Samples)), func() {
		if _, still := l.pending[id]; still {
			l.attempt(id, p.msg, attempt)
		}
	})
}

// lose reports samples that left the system on this link.
func (l *Link) lose(reason procs.LossReason, samples ...resources.Sample) {
	if l.obs == nil {
		return
	}
	for _, s := range samples {
		l.obs.Observe(resources.Event{Kind: resources.EvSampleLost, T: l.sim.Now(), Sample: s, Unit: l.node, N: int(reason)})
	}
}

// cloneMsg deep-copies a message so an injected duplicate cannot alias
// the original's Samples slice or Hops counter (tree relays mutate Hops).
func cloneMsg(m *forward.Message) *forward.Message {
	c := *m
	c.Samples = append([]resources.Sample(nil), m.Samples...)
	return &c
}
