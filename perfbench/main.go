// Command perfbench is the repository's benchmark: closed-loop workloads
// over the ROCC simulator that print end-to-end host-cost metrics and,
// in a traced run, per-layer metrics, after checking every job's output.
//
//	perfbench --workload paper-factorial --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report (manifest, stability of every timing, checks and
// fidelity). See README.md for the workloads and the metric map.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rocc/internal/core"
)

// workload is one closed-loop job mix. A pass generates the mix's inputs
// from the seed and runs them to completion; verify re-runs jobs another
// way (other worker count, in-process instead of distributed) so the
// benchmark can demand byte-identical results.
type workload interface {
	name() string
	pass(seed uint64, traced bool) (*pass, error)
	verify(seed uint64) (idx []int, res []jobResult, err error)
	// firstJob does a pass's set-up, calls started as the first job
	// begins and abandons the pass.
	firstJob(seed uint64, started func()) error
}

// pass is one timed pass of a workload.
type pass struct {
	wall     time.Duration
	jobs     []jobResult
	cfgs     []core.Config // parallel to jobs
	workers  int
	output   []byte             // what the pass renders: tables, waterfalls, sweep report
	layer    map[string]float64 // layer figures the workload measured itself
	errs     []error            // measurement failures, counted as failed jobs
	fidelity *fidelity

	// Filled by measurePass.
	traced      bool
	rt          rtStats // this process
	rssKB       int64   // this process's peak resident set during the pass
	workerRT    rtStats // sweep workers, summed
	workerRSSKB int64   // sweep workers' peaks, summed (they run concurrently)
	cpu         cpuByModule
}

func defaultWorkers() int { return runtime.NumCPU() }

func workloads(workers int) []workload {
	return []workload{paperFactorial{workers}, observedWhatif{workers}, gridSweep{workers}}
}

const minPasses = 3

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "-worker":
			os.Exit(workerMain(os.Args[2:]))
		case "-setup-probe":
			os.Exit(setupProbeMain(os.Args[2:]))
		}
	}
	name := flag.String("workload", "", "workload: paper-factorial, observed-whatif or grid-sweep")
	seed := flag.Uint64("seed", 1, "workload seed (the program sees only the generated configs and seeds)")
	seconds := flag.Int("seconds", 20, "measuring time of the run in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1, --trace 0 or 1, and --seed >= 1")
		os.Exit(2)
	}
	var w workload
	for _, c := range workloads(defaultWorkers()) {
		if c.name() == *name {
			w = c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := runBenchmark(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runBenchmark makes one untimed warm-up pass, which is also the
// reference for every determinism check, then timed passes until the
// measuring time is used (at least minPasses), then the verification
// runs. In a traced run every second pass is traced.
func runBenchmark(w workload, seed uint64, d time.Duration, traced bool) (*runReport, error) {
	setup, err := measureSetup(w.name(), seed)
	if err != nil {
		return nil, err
	}
	ref, err := measurePass(w, seed, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	rep := newRunReport(w.name(), seed, traced, setup, ref)
	deadline := time.Now().Add(d)
	for i := 0; len(rep.passes) < minPasses || time.Now().Before(deadline); i++ {
		p, err := measurePass(w, seed, traced && i%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		rep.addPass(p)
	}
	idx, replay, err := w.verify(seed)
	if err != nil {
		return nil, fmt.Errorf("verification run: %w", err)
	}
	rep.checkVerification(idx, replay)
	rep.manifest = newManifest(seed, ref.workers, ref.cfgs, rep.countedJobs())
	return rep, nil
}

// measurePass runs one pass from a collected heap, recording this
// process's allocation, GC and peak-RSS deltas and, when traced, a CPU
// profile of the pass attributed to modules. The heap's pages stay mapped
// between passes, as in any long-running process, so a pass does not
// pay to fault them in again.
func measurePass(w workload, seed uint64, traced bool) (*pass, error) {
	runtime.GC()
	resetPeakRSS()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	before := readRuntime()
	p, err := w.pass(seed, traced)
	after := readRuntime()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	if len(p.jobs) == 0 || len(p.jobs) != len(p.cfgs) {
		return nil, errors.New("pass returned no jobs or mismatched configs")
	}
	p.traced = traced
	p.rt = after.sub(before)
	p.rssKB = peakRSSKB()
	if traced {
		cpu, err := attributeProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		if p.cpu == nil {
			p.cpu = cpuByModule{}
		}
		p.cpu.add(cpu)
	}
	return p, nil
}
