package main

import (
	"bytes"
	"fmt"
	"time"

	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/report"
	"rocc/internal/resources"
)

// observed-whatif: single what-if runs made the way roccsim -stages makes
// them — trace, metrics and provenance attached, the latency waterfall
// rendered — issued back to back by one client. The mix keeps a
// merge-bound tree, an adaptive multi-daemon SMP and a faulted NOW with
// evicting pipes on the hot path.

const (
	whatifDurationUS = 1e6
	// whatifReplicas runs each configuration of the mix this many times
	// per pass, on independent seeds, so a pass's work varies little from
	// one workload seed to another.
	whatifReplicas = 3
)

// Seed streams for the what-if inputs, disjoint from the core.SeedStream*
// constants the program uses.
const (
	streamWhatifModel = 0x7065726662656e01 + iota
	streamWhatifFaults
)

func planWhatif(seed uint64) []job {
	mpp := core.DefaultConfig()
	mpp.Arch = core.MPP
	mpp.Nodes = 64
	mpp.Forwarding = forward.Tree
	mpp.SamplingPeriod = 5000 // dense: daemons spend their time merging

	smp := core.DefaultConfig()
	smp.Arch = core.SMP
	smp.Nodes = 16
	smp.AppProcs = 64
	smp.Pds = 8
	smp.SamplingPeriod = 1000
	smp.Policy = forward.BF
	smp.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})

	now := core.DefaultConfig()
	now.Nodes = 32
	now.SamplingPeriod = 2000
	now.PipeCapacity = 32
	now.Overflow = resources.DropOldest
	now.Faults = &faults.Plan{
		Loss:        0.05,
		Dup:         0.02,
		CrashMTBF:   300000,
		SqueezeMTBF: 200000,
		Resilience:  faults.Resilience{Retransmit: true, Degrade: true},
	}

	mix := []job{
		{label: "MPP-64 binary-tree CF, 5 ms sampling", cfg: mpp},
		{label: "SMP-16 64 procs 8 daemons abf, 1 ms sampling", cfg: smp},
		{label: "NOW-32 CF, loss/dup/crash/squeeze, DropOldest", cfg: now},
	}
	var jobs []job
	for r := 0; r < whatifReplicas; r++ {
		for _, j := range mix {
			j.cfg.Duration = whatifDurationUS
			j.cfg.Seed = core.DeriveSeed(seed, streamWhatifModel, uint64(len(jobs)))
			if j.cfg.Faults != nil {
				plan := *j.cfg.Faults
				plan.Seed = core.DeriveSeed(seed, streamWhatifFaults, uint64(len(jobs)))
				j.cfg.Faults = &plan
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

type observedWhatif struct{ workers int }

func (observedWhatif) name() string { return "observed-whatif" }

func (w observedWhatif) pass(seed uint64, traced bool) (*pass, error) {
	t0 := time.Now()
	jobs := planWhatif(seed)
	var out bytes.Buffer
	results := make([]jobResult, len(jobs))
	for i, j := range jobs {
		r, err := runModel(j, true)
		if err != nil {
			return nil, err
		}
		results[i] = r
		if err := renderWaterfall(&out, j.label, r.res); err != nil {
			return nil, err
		}
	}
	return &pass{
		wall:    time.Since(t0),
		jobs:    results,
		cfgs:    configsOf(jobs),
		workers: 1,
		output:  out.Bytes(),
		layer:   map[string]float64{},
	}, nil
}

// verify runs the same mix on the full worker count.
func (w observedWhatif) verify(seed uint64) ([]int, []jobResult, error) {
	jobs := planWhatif(seed)
	res, err := runJobs(w.workers, jobs, true)
	idx := make([]int, len(jobs))
	for i := range idx {
		idx[i] = i
	}
	return idx, res, err
}

func (observedWhatif) firstJob(seed uint64, started func()) error {
	return startJobs(1, planWhatif(seed), started)
}

// renderWaterfall prints the per-stage latency decomposition the way
// roccsim -stages does.
func renderWaterfall(buf *bytes.Buffer, label string, res core.Result) error {
	wf := report.Waterfall{Title: fmt.Sprintf("%s: latency decomposition (per-stage dwell)", label)}
	for _, s := range res.LatencyStages {
		wf.Rows = append(wf.Rows, report.StageRow{
			Stage: s.Stage, MeanUS: s.MeanSec * 1e6, P50US: s.P50Sec * 1e6,
			P95US: s.P95Sec * 1e6, P99US: s.P99Sec * 1e6, SharePct: s.SharePct,
		})
	}
	return wf.Render(buf)
}
