package procs

import (
	"rocc/internal/des"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// Barrier is a global synchronization barrier across all application
// processes (the barrier operations whose frequency Figure 28 varies).
// When every participant has arrived, all are released.
type Barrier struct {
	Participants int

	arrived  int
	waiters  []func()
	Releases int
}

// Arrive registers one participant at the barrier; resume runs when the
// barrier opens. A barrier with one participant opens immediately.
func (b *Barrier) Arrive(resume func()) {
	b.arrived++
	b.waiters = append(b.waiters, resume)
	if b.arrived >= b.Participants {
		ws := b.waiters
		b.arrived = 0
		b.waiters = nil
		b.Releases++
		for _, w := range ws {
			w()
		}
	}
}

// Waiting returns the number of processes currently blocked at the barrier.
func (b *Barrier) Waiting() int { return len(b.waiters) }

// AppProcess is one instrumented application process: a closed loop that
// alternates CPU occupancy (Computation) and network occupancy
// (Communication) requests per the simplified two-state model of Figure 7.
// A periodic sampling timer writes instrumentation samples into the pipe;
// if the pipe is full the process blocks, exactly the §4.3.3 effect.
type AppProcess struct {
	Sim  *des.Simulator
	CPU  *resources.CPU
	Net  *resources.Network
	Pipe *resources.Pipe
	R    *rng.Stream

	CPUDist rng.Dist // Computation burst length
	NetDist rng.Dist // Communication burst length

	// SamplingPeriod is the instrumentation sampling interval in
	// microseconds; zero disables sampling (the uninstrumented baseline).
	SamplingPeriod float64

	// Barrier, when non-nil, synchronizes this process with all others
	// every BarrierPeriod microseconds of completed work.
	Barrier       *Barrier
	BarrierPeriod float64

	// Detailed-model options (the full Figure 6 process behavior; all
	// zero values reproduce the simplified Figure 7 model).

	// IOProb is the probability an iteration ends in the Blocked state
	// (waiting for I/O) rather than returning to Ready.
	IOProb float64
	// IOBlock is the blocked-duration distribution (required if IOProb>0).
	IOBlock rng.Dist
	// EventTrace switches the instrumentation to event tracing: one
	// sample per Communication event (each iteration), instead of — or in
	// addition to — timer-driven sampling.
	EventTrace bool
	// SpawnPeriod, with OnSpawn, forks a new process every SpawnPeriod
	// microseconds of completed work (the Fork transition of Figure 6;
	// the instrumentation logs the new process).
	SpawnPeriod float64
	OnSpawn     func(parent *AppProcess)

	Node, ID int

	// Obs, when non-nil, receives EvSampleGenerated events (and
	// EvSampleBlocked when the write stalls on a full pipe).
	Obs resources.Observer

	// Generated counts samples produced (including ones that blocked).
	Generated int
	// BlockedPuts counts samples whose pipe write blocked the process.
	BlockedPuts int
	// Iterations counts completed computation+communication cycles.
	Iterations int
	// IOBlocks counts entries into the Blocked (I/O) state.
	IOBlocks int
	// Spawned counts fork events this process performed.
	Spawned int

	blocked          bool // blocked writing a sample to a full pipe
	atBarrier        bool
	paused           bool // loop paused waiting for unblock/barrier release
	workSinceBarrier float64
	workSinceSpawn   float64

	// sampleSeq numbers this process's samples from run start; unlike
	// Generated it is never reset, so (Node, ID, Seq) stays a unique
	// sample identity across the warmup boundary.
	sampleSeq int

	// The process loop is strictly sequential — at most one CPU request,
	// one network request, one pipe write, and one barrier wait are
	// outstanding at any time — so its continuations are allocated once
	// (initFns) and the current burst lengths live in curCPU/curNet
	// instead of being captured by per-iteration closures.
	curCPU, curNet float64
	cpuDone        func() // Computation burst served → issue Communication
	netDone        func() // Communication served → end of iteration
	tickFn         func() // = sampleTick (method values allocate per use)
	mbtsFn         func() // = maybeBarrierThenStep
	unblockTick    func() // blocked timer-driven write accepted
	unblockEmit    func() // blocked event-trace write accepted
	barrierResume  func() // barrier opened
}

// initFns binds the loop's reusable continuations; idempotent so spawned
// processes started mid-run get them too.
func (a *AppProcess) initFns() {
	if a.cpuDone != nil {
		return
	}
	a.cpuDone = func() {
		a.workSinceBarrier += a.curCPU
		a.workSinceSpawn += a.curCPU
		a.curNet = a.NetDist.Sample(a.R)
		a.Net.Submit(OwnerApp, a.curNet, a.netDone)
	}
	a.netDone = func() {
		a.workSinceBarrier += a.curNet
		a.workSinceSpawn += a.curNet
		a.Iterations++
		a.afterIteration()
	}
	a.tickFn = a.sampleTick
	a.mbtsFn = a.maybeBarrierThenStep
	a.unblockTick = func() {
		// Space freed: the write completes and the process resumes.
		a.blocked = false
		if a.paused {
			a.step()
		}
		a.Sim.Schedule(a.SamplingPeriod, a.tickFn)
	}
	a.unblockEmit = func() {
		a.blocked = false
		if a.paused {
			a.maybeBarrierThenStep()
		}
	}
	a.barrierResume = func() {
		a.atBarrier = false
		if a.paused {
			a.step()
		}
	}
}

// ResetAccounting clears the process's metric counters; used for warmup
// (initial-transient) removal.
func (a *AppProcess) ResetAccounting() {
	a.Generated = 0
	a.BlockedPuts = 0
	a.Iterations = 0
	a.IOBlocks = 0
	a.Spawned = 0
}

// Blocked reports whether the process is currently blocked writing a
// sample into a full pipe.
func (a *AppProcess) Blocked() bool { return a.blocked }

// AtBarrier reports whether the process is currently waiting at the
// global barrier.
func (a *AppProcess) AtBarrier() bool { return a.atBarrier }

// Start launches the process loop and, if sampling is enabled, the
// sampling timer.
func (a *AppProcess) Start() {
	a.initFns()
	a.step()
	if a.SamplingPeriod > 0 {
		a.Sim.Schedule(a.SamplingPeriod, a.tickFn)
	}
}

// step issues the next Computation request unless the process is blocked.
func (a *AppProcess) step() {
	if a.blocked || a.atBarrier {
		a.paused = true
		return
	}
	a.paused = false
	a.curCPU = a.CPUDist.Sample(a.R)
	a.CPU.Submit(OwnerApp, a.curCPU, a.cpuDone)
}

// afterIteration handles the detailed-model transitions of Figure 6 that
// follow a Communication event — event-traced data collection, forking,
// and blocking for I/O — before the barrier check and next cycle.
func (a *AppProcess) afterIteration() {
	if a.EventTrace {
		a.emitSample()
		if a.blocked {
			a.paused = true
			return // resume via the pipe's onAccepted callback
		}
	}
	if a.OnSpawn != nil && a.SpawnPeriod > 0 && a.workSinceSpawn >= a.SpawnPeriod {
		a.workSinceSpawn = 0
		a.Spawned++
		a.OnSpawn(a)
	}
	if a.IOProb > 0 && a.IOBlock != nil && a.R.Bernoulli(a.IOProb) {
		a.IOBlocks++
		a.Sim.Schedule(a.IOBlock.Sample(a.R), a.mbtsFn)
		return
	}
	a.maybeBarrierThenStep()
}

// emitSample generates one instrumentation sample inline with execution
// (event tracing); a full pipe blocks the process exactly like the
// timer-driven path.
func (a *AppProcess) emitSample() {
	s := a.newSample()
	accepted := a.Pipe.Put(s, a.unblockEmit)
	if !accepted {
		a.blocked = true
		a.BlockedPuts++
	}
	if a.Obs != nil {
		a.observe(s, !accepted)
	}
}

// newSample builds the next instrumentation sample, assigning its
// sequence number.
func (a *AppProcess) newSample() resources.Sample {
	s := resources.Sample{GenTime: a.Sim.Now(), Node: a.Node, Proc: a.ID, Seq: a.sampleSeq}
	a.sampleSeq++
	a.Generated++
	return s
}

// observe reports a written sample, and its stall on a full pipe, to
// the attached observer (callers check a.Obs).
func (a *AppProcess) observe(s resources.Sample, blocked bool) {
	a.Obs.Observe(resources.Event{Kind: resources.EvSampleGenerated, T: s.GenTime, Sample: s})
	if blocked {
		a.Obs.Observe(resources.Event{Kind: resources.EvSampleBlocked, T: s.GenTime, Sample: s})
	}
}

func (a *AppProcess) maybeBarrierThenStep() {
	if a.Barrier != nil && a.BarrierPeriod > 0 && a.workSinceBarrier >= a.BarrierPeriod {
		a.workSinceBarrier = 0
		a.atBarrier = true
		a.Barrier.Arrive(a.barrierResume)
		if a.atBarrier { // barrier did not open synchronously
			a.paused = true
			return
		}
	}
	a.step()
}

// sampleTick generates one instrumentation sample and reschedules itself.
// While the process is blocked on a full pipe, no further samples are
// generated (the write system call has not returned).
func (a *AppProcess) sampleTick() {
	if a.blocked {
		// The pending blocked write will reschedule the timer on release.
		return
	}
	s := a.newSample()
	accepted := a.Pipe.Put(s, a.unblockTick)
	if a.Obs != nil {
		a.observe(s, !accepted)
	}
	if accepted {
		a.Sim.Schedule(a.SamplingPeriod, a.tickFn)
		return
	}
	a.blocked = true
	a.BlockedPuts++
}
