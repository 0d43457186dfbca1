package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"rocc/internal/core"
	"rocc/internal/dist"
	"rocc/internal/par"
)

// Set-up time is what a user waits from launching a run to its first job
// running: process start, config generation and, for the sweep, worker
// spawn and dispatch. The benchmark measures it by launching itself in
// set-up probe mode several times per run; a probe does the workload's
// set-up, announces the first job and abandons the run.

const (
	setupProbes   = 15
	setupProbeTag = "first-job-running"
)

var errProbeDone = errors.New("set-up probe done")

// measureSetup launches setupProbes probes and returns their times from
// process start to the first-job line.
func measureSetup(workload string, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(exe, workload, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func probeOnce(exe, workload string, seed uint64) (time.Duration, error) {
	cmd := exec.Command(exe, "-setup-probe", workload, strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(stdout)
	var d time.Duration
	for sc.Scan() {
		if sc.Text() == setupProbeTag && d == 0 {
			d = time.Since(t0)
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if d == 0 {
		return 0, errors.New("probe never started a job")
	}
	return d, nil
}

// setupProbeMain is the probe process: args are the workload name and
// seed.
func setupProbeMain(args []string) int {
	if len(args) != 2 {
		return 2
	}
	seed, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return 2
	}
	var once sync.Once
	started := func() { once.Do(func() { fmt.Println(setupProbeTag) }) }
	for _, w := range workloads(defaultWorkers()) {
		if w.name() == args[0] {
			if err := w.firstJob(seed, started); err != nil && !errors.Is(err, errProbeDone) {
				fmt.Fprintln(os.Stderr, "perfbench set-up probe:", err)
				return 1
			}
			return 0
		}
	}
	return 2
}

// startJobs hands jobs to par.Map as a pass would and stops at the first.
func startJobs(workers int, jobs []job, started func()) error {
	_, err := par.Map(workers, jobs, func(int, job) (core.Result, error) {
		started()
		return core.Result{}, errProbeDone
	})
	return err
}

// probeRunner is a sweep worker slot that reports the first dispatched
// shard and cancels the sweep; dist then kills and reaps its workers.
type probeRunner struct {
	dist.SubprocessRunner
	started func()
	cancel  context.CancelFunc
}

func (r probeRunner) Start(ctx context.Context) (dist.Worker, error) {
	w, err := r.SubprocessRunner.Start(ctx)
	if err != nil {
		return nil, err
	}
	return probeWorker{w, r}, nil
}

type probeWorker struct {
	dist.Worker
	r probeRunner
}

func (w probeWorker) Run(ctx context.Context, id int, jobs []dist.Job) ([]core.Result, error) {
	w.r.started()
	w.r.cancel()
	return w.Worker.Run(ctx, id, jobs)
}
