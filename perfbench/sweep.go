package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"rocc/internal/dist"
	"rocc/internal/obs"
	"rocc/internal/par"
)

// grid-sweep: the full scenario grid × reps at a short simulated
// duration, sharded one job per shard over self-exec subprocess workers
// speaking the dist wire protocol and merged into a SweepReport, as
// roccsweep -grid full does. Jobs take a millisecond or two, so the
// per-job fixed costs — config resolution, model assembly, JSON framing,
// worker start, dispatch and merge — are a large share of them.

const (
	sweepGrid        = "full"
	sweepReps        = 2
	sweepDurationSec = 0.1
)

type gridSweep struct{ workers int }

func (gridSweep) name() string { return "grid-sweep" }

func (w gridSweep) pass(seed uint64, traced bool) (*pass, error) {
	probe := newSweepProbe()
	runners := make([]dist.Runner, w.workers)
	for i := range runners {
		runners[i] = newBenchRunner(i, traced, probe)
	}
	metrics := obs.NewSweepMetrics()
	var tr *dist.TraceRecorder
	if traced {
		tr = dist.NewTraceRecorder()
	}
	t0 := time.Now()
	rep, err := dist.Sweep(context.Background(), dist.SweepOptions{
		Grid: sweepGrid, Reps: sweepReps, DurationSec: sweepDurationSec, Seed: seed,
		Dist: dist.Options{
			Runners:       runners,
			LocalParallel: w.workers,
			// One attempt per shard: a speculative duplicate of the last
			// straggler would make each pass do a varying amount of work.
			MaxShardAttempts: 1,
			Seed:             seed,
			Log:              os.Stderr,
			Metrics:          metrics,
			Trace:            tr,
		},
	})
	if err != nil {
		return nil, err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)

	p := &pass{
		wall:    wall,
		workers: w.workers,
		output:  out,
		layer: map[string]float64{
			"dist.retries": float64(metrics.Retries.Value()),
		},
		errs: probe.errs,
	}
	for _, c := range rep.Cells {
		for _, r := range c.Results {
			p.jobs = append(p.jobs, jobResult{res: r, ns: probe.jobNs[len(p.jobs)]})
		}
	}
	g, err := dist.GridByName(sweepGrid)
	if err != nil {
		return nil, err
	}
	for _, j := range dist.SweepJobs(g, seed, sweepReps, sweepDurationSec) {
		cfg, err := j.Spec.Config()
		if err != nil {
			return nil, err
		}
		p.cfgs = append(p.cfgs, cfg)
	}
	var startNs int64
	for _, st := range probe.workers {
		p.workerRT = p.workerRT.add(st.Runtime)
		p.workerRSSKB += st.MaxRSSKB
		startNs += st.startNs
		if traced {
			cpu, err := attributeProfile(st.Profile)
			if err != nil {
				return nil, fmt.Errorf("worker profile: %w", err)
			}
			if p.cpu == nil {
				p.cpu = cpuByModule{}
			}
			p.cpu.add(cpu)
		}
	}
	if n := len(probe.workers); n > 0 {
		p.layer["dist.worker_start_ms"] = float64(startNs) / 1e6 / float64(n)
	}
	if tr != nil {
		ov, err := dispatchOverheadMS(tr)
		if err != nil {
			return nil, err
		}
		p.layer["dist.overhead_ms_per_job"] = ov
	}
	return p, nil
}

func (w gridSweep) firstJob(seed uint64, started func()) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runners := make([]dist.Runner, w.workers)
	for i := range runners {
		runners[i] = probeRunner{
			SubprocessRunner: dist.SubprocessRunner{Stderr: io.Discard, Label: fmt.Sprintf("worker-%d", i)},
			started:          started, cancel: cancel,
		}
	}
	_, err := dist.Sweep(ctx, dist.SweepOptions{
		Grid: sweepGrid, Reps: sweepReps, DurationSec: sweepDurationSec, Seed: seed,
		Dist: dist.Options{Runners: runners, LocalParallel: w.workers, MaxShardAttempts: 1, Seed: seed},
	})
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// verify replays every job of the sweep in-process — the code path of
// dist.Execute, with each step timed — on the full worker count, and a
// seed-chosen subset serially; both must match the distributed results.
func (w gridSweep) verify(seed uint64) ([]int, []jobResult, error) {
	g, err := dist.GridByName(sweepGrid)
	if err != nil {
		return nil, nil, err
	}
	jobs := dist.SweepJobs(g, seed, sweepReps, sweepDurationSec)
	replay := func(workers int, idx []int) ([]jobResult, error) {
		return par.Map(workers, idx, func(_ int, i int) (jobResult, error) {
			t0 := time.Now()
			cfg, err := jobs[i].Spec.Config()
			configNs := time.Since(t0).Nanoseconds()
			if err != nil {
				return jobResult{}, err
			}
			if jobs[i].Seed != 0 {
				cfg.Seed = jobs[i].Seed
			}
			r, err := runModel(job{label: fmt.Sprintf("job %d", i), cfg: cfg}, false)
			r.configNs = configNs
			return r, err
		})
	}
	all := make([]int, len(jobs))
	for i := range all {
		all[i] = i
	}
	full, err := replay(w.workers, all)
	if err != nil {
		return nil, nil, err
	}
	sub := sampleIndices(len(jobs), 8, seed)
	serial, err := replay(1, sub)
	if err != nil {
		return nil, nil, err
	}
	return append(all, sub...), append(full, serial...), nil
}

// dispatchOverheadMS is the mean, over shards, of the coordinator's
// dispatch span minus the worker's own run span for the same attempt:
// what framing, transport and dispatch add to each job.
func dispatchOverheadMS(tr *dist.TraceRecorder) (float64, error) {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return 0, err
	}
	var events []struct {
		Cat  string         `json:"cat"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		return 0, err
	}
	type key struct{ shard, attempt float64 }
	dispatch := map[key]float64{}
	run := map[key]float64{}
	for _, e := range events {
		shard, _ := e.Args["shard"].(float64)
		attempt, _ := e.Args["attempt"].(float64)
		switch e.Cat {
		case "dispatch":
			dispatch[key{shard, attempt}] = e.Dur
		case "run":
			run[key{shard, attempt}] = e.Dur
		}
	}
	var sum float64
	var n int
	for k, d := range dispatch {
		if r, ok := run[k]; ok {
			sum += d - r
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("trace has no matched dispatch/run spans")
	}
	return sum / float64(n) / 1e3, nil
}
