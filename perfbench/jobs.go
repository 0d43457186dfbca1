package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"time"

	"rocc/internal/core"
	"rocc/internal/procs"
)

// job is one simulation run: a fully resolved configuration, seed
// included.
type job struct {
	label string
	cfg   core.Config
}

// jobResult is one finished job as the benchmark saw it from outside.
type jobResult struct {
	res      core.Result
	ns       int64 // host time of the job as the client waits for it
	newNs    int64 // core.New (in-process jobs only)
	runNs    int64 // Model.Run (in-process jobs only)
	configNs int64 // scenario.Spec.Config (in-process sweep replay only)
	counters counters
}

// counters are the deterministic work counters read off a model after
// its run: they must repeat exactly for one seed.
type counters struct {
	Events             uint64
	PipePuts           int
	PipeDropped        int
	PipeBlockedWaitSec float64
	NetTransfers       int
	Calendar           string // resolved event-list kind
}

// runModel runs one job in-process, timing core.New and Model.Run
// separately, with observability attached when obs is set.
func runModel(j job, obs bool) (jobResult, error) {
	t0 := time.Now()
	m, err := core.New(j.cfg)
	if err != nil {
		return jobResult{}, fmt.Errorf("%s: %w", j.label, err)
	}
	if obs {
		if _, err := m.EnableObservability(core.ObsOptions{Trace: true, Metrics: true, Provenance: true}); err != nil {
			return jobResult{}, fmt.Errorf("%s: %w", j.label, err)
		}
	}
	t1 := time.Now()
	res := m.Run()
	t2 := time.Now()
	return jobResult{
		res:      res,
		ns:       t2.Sub(t0).Nanoseconds(),
		newNs:    t1.Sub(t0).Nanoseconds(),
		runNs:    t2.Sub(t1).Nanoseconds(),
		counters: countersOf(m),
	}, nil
}

func countersOf(m *core.Model) counters {
	c := counters{Events: m.Sim.Dispatched, Calendar: calendarKind(m)}
	for _, d := range m.Daemons {
		for _, p := range d.Pipes {
			c.PipePuts += p.Puts()
			c.PipeDropped += p.Dropped()
			c.PipeBlockedWaitSec += p.BlockedWaitTotal() / 1e6
		}
	}
	for _, owner := range []string{procs.OwnerApp, procs.OwnerPd, procs.OwnerPvm, procs.OwnerOther, procs.OwnerMain} {
		c.NetTransfers += m.Net.Transfers(owner)
	}
	return c
}

// calendarKind names the event list core.New resolved for the model. The
// simulator keeps it unexported, so it is read by reflection.
func calendarKind(m *core.Model) string {
	v := reflect.ValueOf(m.Sim).Elem().FieldByName("cal")
	if !v.IsValid() || v.IsNil() {
		return "unknown"
	}
	switch v.Elem().Type().String() {
	case "*des.HeapCalendar":
		return "heap"
	case "*des.BucketCalendar":
		return "bucket"
	case "*des.ListCalendar":
		return "list"
	}
	return v.Elem().Type().String()
}

// canonical is the canonical JSON of a Result: the form roccsim -json
// and the sweep report write.
func canonical(r core.Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// Results hold NaN/Inf only when a run is broken; make that visible
		// as a mismatch rather than a crash.
		return []byte("unencodable: " + err.Error())
	}
	return b
}

// checkResult returns the invariants a job's Result violates: sample
// conservation, finite non-negative latencies, and utilizations within
// the capacity of the resource they are measured on.
func checkResult(cfg core.Config, r core.Result) []string {
	var bad []string
	if r.SamplesReceived > r.SamplesGenerated+r.WarmupCarryover {
		bad = append(bad, fmt.Sprintf("received %d > generated %d + carryover %d",
			r.SamplesReceived, r.SamplesGenerated, r.WarmupCarryover))
	}
	lat := map[string]float64{
		"latency mean": r.MonitoringLatencySec, "latency p95": r.MonitoringLatencyP95Sec,
		"latency max": r.MonitoringLatencyMaxSec, "latency p50": r.MonitoringLatencyP50Sec,
		"latency p99": r.MonitoringLatencyP99Sec, "forward latency": r.ForwardLatencySec,
	}
	for _, s := range r.LatencyStages {
		lat["stage "+s.Stage+" mean"] = s.MeanSec
		lat["stage "+s.Stage+" p99"] = s.P99Sec
	}
	for name, v := range lat {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			bad = append(bad, fmt.Sprintf("%s = %v", name, v))
		}
	}
	const capacity = 100 + 1e-6
	utils := map[string]float64{
		"app cpu": r.AppCPUUtilPct, "pd cpu": r.PdCPUUtilPct, "main cpu": r.MainCPUUtilPct,
		"pvm cpu": r.PvmCPUUtilPct, "other cpu": r.OtherCPUUtilPct, "is cpu": r.ISCPUUtilPct,
		"net": r.NetUtilPct, "pd net": r.PdNetUtilPct,
	}
	for name, v := range utils {
		if math.IsNaN(v) || v < 0 {
			bad = append(bad, fmt.Sprintf("%s utilization = %v", name, v))
		}
	}
	// Every class on a node shares its CPUs (the SMP pool includes main).
	node := r.AppCPUUtilPct + r.PdCPUUtilPct + r.PvmCPUUtilPct + r.OtherCPUUtilPct
	if cfg.Arch == core.SMP {
		node += r.MainCPUUtilPct
	} else if r.MainCPUUtilPct > capacity {
		bad = append(bad, fmt.Sprintf("main cpu utilization %.4f%% > 100%%", r.MainCPUUtilPct))
	}
	if node > capacity {
		bad = append(bad, fmt.Sprintf("node cpu utilization %.4f%% > 100%%", node))
	}
	// A contended network is one channel; a contention-free one serves
	// transfers in parallel and has no 100% ceiling.
	contended := cfg.Network == core.ContentionOn || (cfg.Network == core.ContentionAuto && cfg.Arch == core.SMP)
	if contended && r.NetUtilPct > capacity {
		bad = append(bad, fmt.Sprintf("contended network utilization %.4f%% > 100%%", r.NetUtilPct))
	}
	return bad
}
