package dist

import (
	"math"
	"sort"
	"sync"
	"time"

	"rocc/internal/obs"
)

// Monitor tracks a sweep's live progress for the monitoring endpoint
// (/progress on roccsweep -http): shard lifecycle counts, per-worker
// state, and an ETA derived from observed shard durations. The
// coordinator feeds it on every transition; Snapshot may be called from
// any goroutine at any moment. A nil *Monitor is valid and free — every
// method no-ops — so the engine pays nothing when telemetry is off. The
// retry, speculative, duplicate and timeout counts are not kept here:
// Snapshot reads them from the sweep's obs.SweepMetrics, which the
// coordinator bumps at those transitions.
//
// Two invariants the chaos tests pin: Done never decreases (duplicate
// completions and worker failures cannot un-complete a shard), and
// ETASec is always finite (no NaN/Inf leaks into the JSON, whatever the
// fleet is doing).
type Monitor struct {
	mu          sync.Mutex
	start       time.Time
	shards      int
	done        int
	inflight    int // active attempts, speculative twins included
	waiting     int // shards in retry backoff
	local       int // shards routed to the local fallback
	failures    int
	sweep       *obs.SweepMetrics // the current sweep's counters; nil before begin
	durSum      time.Duration
	durN        int
	workers     map[string]*workerInfo
	quarantined []string
	finished    bool
}

type workerInfo struct {
	state     string // starting, idle, running, quarantined, retired
	shard     int    // shard being run; -1 otherwise
	completed int
	failures  int
}

// WorkerState is one worker slot's live state in a Progress snapshot.
type WorkerState struct {
	Name string `json:"name"`
	// State is one of starting, idle, running, quarantined, retired.
	State string `json:"state"`
	// Shard is the shard index being run, -1 when not running.
	Shard     int `json:"shard"`
	Completed int `json:"completed"`
	Failures  int `json:"failures"`
}

// Progress is a point-in-time view of a sweep, JSON-shaped for the
// /progress endpoint.
type Progress struct {
	Shards   int `json:"shards"`
	Done     int `json:"done"`
	Inflight int `json:"inflight"`
	// Waiting counts shards sitting out a retry backoff.
	Waiting int `json:"waiting"`
	// LocalFallback counts shards routed to local execution after their
	// remote retry budget was exhausted (or when the fleet was lost).
	LocalFallback int     `json:"local_fallback"`
	Retries       int     `json:"retries"`
	Speculative   int     `json:"speculative"`
	Duplicates    int     `json:"duplicates"`
	Timeouts      int     `json:"timeouts"`
	Failures      int     `json:"failures"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	// AvgShardSec is the mean observed duration of completed shards
	// (0 until the first completion).
	AvgShardSec float64 `json:"avg_shard_sec"`
	// ETASec estimates the remaining wall-clock seconds from observed
	// shard durations and the live worker count. Always finite; 0 until
	// the first shard completes (no basis for an estimate) and 0 once
	// the sweep is finished.
	ETASec      float64       `json:"eta_sec"`
	Finished    bool          `json:"finished"`
	Workers     []WorkerState `json:"workers"`
	Quarantined []string      `json:"quarantined,omitempty"`
}

// NewMonitor returns a monitor ready to attach to Options.Monitor.
func NewMonitor() *Monitor {
	return &Monitor{start: time.Now(), workers: make(map[string]*workerInfo)}
}

// begin records the sweep's shape: total shards, how many arrived
// pre-completed from a resumed journal, and the sweep's metric registry.
// A monitor may outlive one sweep (roccbench runs several experiments
// through one endpoint): begin resets the per-sweep shape while the
// failure and fallback counts and worker histories carry over; the
// counts read from sweep carry over when the sweeps share one registry.
func (m *Monitor) begin(shards, recovered int, sweep *obs.SweepMetrics) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.sweep = sweep
	m.shards = shards
	m.done = recovered
	m.finished = false
	m.durSum = 0
	m.durN = 0
	m.mu.Unlock()
}

func (m *Monitor) worker(name string) *workerInfo {
	w := m.workers[name]
	if w == nil {
		w = &workerInfo{state: "starting", shard: -1}
		m.workers[name] = w
	}
	return w
}

// workerStarting records a slot attempting to start a worker process.
func (m *Monitor) workerStarting(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.worker(name).state = "starting"
	m.mu.Unlock()
}

// workerReady records a slot's worker up and waiting for a shard.
func (m *Monitor) workerReady(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	w := m.worker(name)
	w.state = "idle"
	w.shard = -1
	m.mu.Unlock()
}

// dispatched records one attempt handed to a worker.
func (m *Monitor) dispatched(name string, shard int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.inflight++
	w := m.worker(name)
	w.state = "running"
	w.shard = shard
	m.mu.Unlock()
}

// completed records a shard's first completion (remote path).
func (m *Monitor) completed(name string, shard int, dur time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.done++
	m.inflight--
	m.durSum += dur
	m.durN++
	w := m.worker(name)
	w.state = "idle"
	w.shard = -1
	w.completed++
	m.mu.Unlock()
}

// duplicate records a completion discarded because a speculative twin
// already finished the shard; Done must not move.
func (m *Monitor) duplicate(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.inflight--
	w := m.worker(name)
	w.state = "idle"
	w.shard = -1
	m.mu.Unlock()
}

// failed records one failed attempt.
func (m *Monitor) failed(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.failures++
	m.inflight--
	w := m.worker(name)
	if w.state == "running" {
		w.state = "idle"
	}
	w.shard = -1
	w.failures++
	m.mu.Unlock()
}

// backoff records a shard entering its retry-wait window.
func (m *Monitor) backoff() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.waiting++
	m.mu.Unlock()
}

// requeued records a shard leaving retry-wait for the dispatch queue.
func (m *Monitor) requeued() {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.waiting > 0 {
		m.waiting--
	}
	m.mu.Unlock()
}

// toLocal records a shard routed to the local fallback.
func (m *Monitor) toLocal() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.local++
	m.mu.Unlock()
}

// completedLocal records a local-fallback (or pure-local) completion.
func (m *Monitor) completedLocal(dur time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.done++
	m.durSum += dur
	m.durN++
	m.mu.Unlock()
}

// quarantine marks a worker slot retired after repeated failures.
func (m *Monitor) quarantine(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	w := m.worker(name)
	w.state = "quarantined"
	w.shard = -1
	m.quarantined = append(m.quarantined, name)
	m.mu.Unlock()
}

// workerRetired marks a slot done for any non-quarantine reason
// (shutdown, persistent start failure).
func (m *Monitor) workerRetired(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	w := m.worker(name)
	if w.state != "quarantined" {
		w.state = "retired"
		w.shard = -1
	}
	m.mu.Unlock()
}

// finish marks the sweep complete; ETA pins to zero.
func (m *Monitor) finish() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.finished = true
	m.mu.Unlock()
}

// Snapshot returns the current progress; safe from any goroutine, and
// safe on a nil monitor (zero Progress).
func (m *Monitor) Snapshot() Progress {
	if m == nil {
		return Progress{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := Progress{
		Shards:        m.shards,
		Done:          m.done,
		Inflight:      m.inflight,
		Waiting:       m.waiting,
		LocalFallback: m.local,
		Failures:      m.failures,
		ElapsedSec:    time.Since(m.start).Seconds(),
		Finished:      m.finished,
		Quarantined:   append([]string(nil), m.quarantined...),
	}
	if m.sweep != nil {
		p.Retries = int(m.sweep.Retries.Value())
		p.Speculative = int(m.sweep.Redispatches.Value())
		p.Duplicates = int(m.sweep.Duplicates.Value())
		p.Timeouts = int(m.sweep.Timeouts.Value())
	}
	if m.durN > 0 {
		p.AvgShardSec = (m.durSum / time.Duration(m.durN)).Seconds()
	}
	// ETA: remaining shards at the observed average rate over the
	// workers that can still take work; guarded so the estimate stays
	// finite whatever state the fleet is in.
	active := 0
	for name := range m.workers {
		switch m.workers[name].state {
		case "starting", "idle", "running":
			active++
		}
	}
	if !m.finished && m.durN > 0 && m.shards > m.done {
		lanes := active
		if lanes < 1 {
			lanes = 1 // local fallback still drains on this host
		}
		eta := p.AvgShardSec * float64(m.shards-m.done) / float64(lanes)
		if !math.IsInf(eta, 0) && !math.IsNaN(eta) && eta >= 0 {
			p.ETASec = eta
		}
	}
	names := make([]string, 0, len(m.workers))
	for name := range m.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	p.Workers = make([]WorkerState, 0, len(names))
	for _, name := range names {
		w := m.workers[name]
		p.Workers = append(p.Workers, WorkerState{
			Name: name, State: w.state, Shard: w.shard,
			Completed: w.completed, Failures: w.failures,
		})
	}
	return p
}
