package resources

import "fmt"

// EventKind classifies one event of the instrumentation system's event
// stream. The String labels double as the Chrome trace event names.
type EventKind int

const (
	EvSampleGenerated EventKind = iota
	EvSampleBlocked
	EvPipePut
	EvPipeBlocked
	EvPipeDropped
	EvPipeGet
	EvBatchCollected
	EvMessageForwarded
	EvMessageDelivered
	EvSampleDelivered
	EvDaemonCrash
	EvDaemonRestore
	EvRetransmit
	// EvSampleForwarded and EvSampleArrived are never emitted: they are
	// the per-sample records the trace sink stores for each sample of an
	// EvMessageForwarded or EvMessageReceived batch, so a sample's hops
	// are reconstructible from the trace.
	EvSampleForwarded
	EvSampleArrived
	EvSampleLost
	EvMessageReceived
	EvCPUSlice
	EvNetTransfer
	// EvReset marks the warmup boundary: consumers discard aggregates.
	EvReset
)

var eventLabels = [...]string{
	EvSampleGenerated:  "sample-generated",
	EvSampleBlocked:    "sample-blocked",
	EvPipePut:          "pipe-put",
	EvPipeBlocked:      "pipe-blocked",
	EvPipeDropped:      "pipe-dropped",
	EvPipeGet:          "pipe-get",
	EvBatchCollected:   "batch-collected",
	EvMessageForwarded: "message-forwarded",
	EvMessageDelivered: "message-delivered",
	EvSampleDelivered:  "sample-delivered",
	EvDaemonCrash:      "daemon-crash",
	EvDaemonRestore:    "daemon-restore",
	EvRetransmit:       "retransmit",
	EvSampleForwarded:  "sample-forwarded",
	EvSampleArrived:    "sample-arrived",
	EvSampleLost:       "sample-lost",
	EvMessageReceived:  "message-received",
	EvCPUSlice:         "cpu-slice",
	EvNetTransfer:      "net-transfer",
	EvReset:            "reset",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventLabels) {
		return eventLabels[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one occurrence on a sample's path — application, pipe,
// daemon, tree merge, main process — or one slice of CPU or network
// occupancy. Field use varies by Kind:
//
//   - T is the simulated time (microseconds) the event fires.
//   - Sample is the sample concerned, for the sample and pipe kinds.
//   - Batch is a message's samples for EvMessageForwarded and
//     EvMessageReceived.
//   - Unit is the pipe ID for pipe kinds, the daemon's node for daemon,
//     message and loss kinds, the CPU index for EvCPUSlice, and 0 for the
//     network and the main process.
//   - N is a kind-specific count: pipe depth after a put or get, 1 for a
//     DropOldest eviction (0 for a discarded arrival), samples in a
//     collected batch or delivered message, samples lost in a crash, the
//     retransmit attempt (from 1), or the procs.LossReason of a loss.
//   - Hops is the message's forwarding depth.
//   - Dur is the span that ends at T: a delivered sample's end-to-end
//     latency, or the length of a CPU slice or network transfer.
//   - Owner is the occupancy's owner class.
type Event struct {
	Kind   EventKind
	T      float64
	Sample Sample
	Batch  []Sample
	Unit   int
	N      int
	Hops   int
	Dur    float64
	Owner  string
}

// Observer consumes the event stream. Every emitter holds one and guards
// it with a nil check, so an unattached stream costs one branch per
// event. Events are passed by value; an implementation must only record
// them, never call back into the model or the simulator, and must not
// keep Batch past the call: it is the sample buffer of a pooled message
// that the model recycles after main receipt.
type Observer interface {
	Observe(Event)
}
