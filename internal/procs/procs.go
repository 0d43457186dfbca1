// Package procs implements the process behavior models of the ROCC model
// (Figures 6 and 7 of the paper): instrumented application processes that
// alternate Computation and Communication states, Paradyn daemons that
// collect samples from pipes and forward them under the CF or BF policy,
// the main Paradyn process that consumes forwarded data, and the open
// arrival streams of the PVM daemon and other user/system processes.
package procs

// Owner-class labels used for resource-occupancy accounting. Direct IS
// overhead is the occupancy attributed to OwnerPd plus OwnerMain.
const (
	OwnerApp   = "app"
	OwnerPd    = "pd"
	OwnerPvm   = "pvmd"
	OwnerOther = "other"
	OwnerMain  = "paradyn"
)

// LossReason classifies why a sample left the system without reaching
// the main process. It travels as the N of a resources.EvSampleLost
// event: the provenance engine closes in-flight records by it and the
// trace sink labels losses with it.
type LossReason int

const (
	// LossThinned: discarded by graceful-degradation thinning in a
	// daemon's drain path.
	LossThinned LossReason = iota
	// LossCrash: discarded by a daemon crash (relay queue, in-prep batch,
	// message received while down, or delivery into a crashed receiver
	// over an unprotected link).
	LossCrash
	// LossLink: lost in transit on an unprotected (non-resilient) link.
	LossLink
	// LossGiveUp: a resilient link exhausted its retransmission budget.
	LossGiveUp
)

// String returns the loss reason's short label.
func (r LossReason) String() string {
	switch r {
	case LossThinned:
		return "thinned"
	case LossCrash:
		return "crash"
	case LossLink:
		return "link"
	case LossGiveUp:
		return "giveup"
	default:
		return "unknown"
	}
}
