// Package resources models the shared system resources of the ROCC model:
// CPUs scheduled round-robin with a fixed quantum, the interconnect
// (a contended single-channel network for NOW/SMP or a contention-free
// direct network for MPP), and the bounded kernel pipes through which
// instrumented application processes hand samples to a Paradyn daemon.
//
// Every resource accounts occupancy time per owner class, which is exactly
// the "resource occupancy" the ROCC model is named for: direct IS overhead
// is the occupancy attributed to instrumentation processes.
package resources

import (
	"math"

	"rocc/internal/des"
)

// epsilon below which a remaining CPU demand counts as finished, guarding
// against float round-off in quantum arithmetic.
const epsilon = 1e-9

// CPU is a multi-core processor scheduled with a preemptive round-robin
// policy and fixed scheduling quantum (10,000 microseconds in Table 2).
// Requests longer than the quantum are timesliced; at each expiry the
// request goes to the back of the ready queue, modeling fair sharing
// between application and instrumentation processes on a node.
type CPU struct {
	sim     *des.Simulator
	cores   int
	quantum float64

	ready   FIFO[*cpuReq]
	running int

	busy      tally
	busyTotal float64

	// free recycles completed request records; each carries a fire
	// closure bound once at allocation, so the per-slice hot path
	// (Submit → dispatch → slice expiry) allocates nothing in steady
	// state.
	free []*cpuReq

	// obs, if set, receives an EvCPUSlice event per completed slice (the
	// trace sink's AIX-like records); unit is the CPU's Unit in them.
	obs  Observer
	unit int
}

type cpuReq struct {
	owner     string
	remaining float64
	slice     float64 // current quantum slice, set by dispatch
	onDone    func()
	fire      func() // calls CPU.complete(this); bound once, reused forever
}

// maxReqFree caps the request free list (a burst of queued work must not
// pin memory for the rest of a run).
const maxReqFree = 1024

// NewCPU returns a CPU with the given core count and scheduling quantum in
// microseconds. It panics on non-positive arguments.
func NewCPU(sim *des.Simulator, cores int, quantum float64) *CPU {
	if cores <= 0 {
		panic("resources: CPU needs at least one core")
	}
	if quantum <= 0 {
		panic("resources: CPU quantum must be positive")
	}
	return &CPU{sim: sim, cores: cores, quantum: quantum}
}

// SetObserver attaches an event observer; unit identifies this CPU in
// its events. A nil observer detaches.
func (c *CPU) SetObserver(unit int, o Observer) { c.unit, c.obs = unit, o }

// Submit enqueues a CPU occupancy request of the given length for owner.
// onDone runs when the request has received its full service demand; it may
// be nil. Zero-length requests complete immediately.
func (c *CPU) Submit(owner string, length float64, onDone func()) {
	if length < 0 || math.IsNaN(length) {
		panic("resources: negative or NaN CPU request")
	}
	if length <= epsilon {
		if onDone != nil {
			onDone()
		}
		return
	}
	var req *cpuReq
	if n := len(c.free); n > 0 {
		req = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		req.owner, req.remaining, req.onDone = owner, length, onDone
	} else {
		req = &cpuReq{owner: owner, remaining: length, onDone: onDone}
		req.fire = func() { c.complete(req) }
	}
	c.ready.Push(req)
	c.dispatch()
}

func (c *CPU) dispatch() {
	for c.running < c.cores && c.ready.Len() > 0 {
		req := c.ready.Pop()
		c.running++
		slice := req.remaining
		if slice > c.quantum {
			slice = c.quantum
		}
		req.slice = slice
		c.sim.Schedule(slice, req.fire)
	}
}

// complete runs at a slice's expiry: account the slice, then finish the
// request (recycling its record) or requeue its remainder.
func (c *CPU) complete(req *cpuReq) {
	slice := req.slice
	c.busy.add(req.owner, slice)
	c.busyTotal += slice
	if c.obs != nil {
		c.obs.Observe(Event{Kind: EvCPUSlice, T: c.sim.Now(), Dur: slice, Unit: c.unit, Owner: req.owner})
	}
	req.remaining -= slice
	c.running--
	if req.remaining <= epsilon {
		done := req.onDone
		req.onDone = nil
		if len(c.free) < maxReqFree {
			c.free = append(c.free, req)
		}
		if done != nil {
			done()
		}
	} else {
		c.ready.Push(req)
	}
	c.dispatch()
}

// QueueLen returns the number of requests waiting (not running).
func (c *CPU) QueueLen() int { return c.ready.Len() }

// Running returns the number of requests currently holding a core.
func (c *CPU) Running() int { return c.running }

// Busy returns accumulated occupancy time for an owner class, in
// microseconds of CPU time.
func (c *CPU) Busy(owner string) float64 { return c.busy.get(owner) }

// BusyTotal returns accumulated occupancy across all owners.
func (c *CPU) BusyTotal() float64 { return c.busyTotal }

// ResetAccounting clears occupancy accounting without disturbing queued or
// running requests; used for warmup (initial-transient) removal.
func (c *CPU) ResetAccounting() {
	c.busy.reset()
	c.busyTotal = 0
}

// Owners returns the set of owner classes that have accumulated CPU time.
func (c *CPU) Owners() []string { return c.busy.owners() }

// Utilization returns the fraction of total core-time an owner occupied
// over elapsed microseconds of simulated time.
func (c *CPU) Utilization(owner string, elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return c.busy.get(owner) / (float64(c.cores) * elapsed)
}
