// Command roccbench regenerates the paper's tables and figures.
//
// Usage:
//
//	roccbench -list
//	roccbench -exp fig17
//	roccbench -exp all -duration 100 -reps 50   # paper scale
//	roccbench -exp fig9 -csv                    # CSV series for plotting
//	roccbench -exp fig16 -parallel 8            # fan replications over 8 workers
//	roccbench -exp table4 -dist 4               # fan factorial runs over 4 worker processes
//	roccbench -exp table4 -dist 4 -http :9090   # live /metrics and /progress while it runs
//	roccbench -exp fig17 -cpuprofile cpu.pprof  # profile the regeneration
//
// -parallel N fans the independent simulation runs of an experiment
// (replications, factorial rows, sweep points) over N worker goroutines;
// 0 means one per core, 1 forces the serial path. Output is byte-identical
// at any setting. -dist N instead fans the factorial designs over N worker
// processes through the fault-tolerant distributed engine (internal/dist);
// the workers are this binary re-executed with -worker, and output is
// byte-identical to the in-process paths.
//
// Engine performance is measured by the perfbench module (medians over
// repeats, per-layer CPU shares) and gated by the root package's
// per-experiment allocation pins (TestTrackedExperimentAllocations).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rocc/internal/cli"
	"rocc/internal/des"
	"rocc/internal/dist"
	"rocc/internal/experiments"
	"rocc/internal/obs"
	"rocc/internal/obs/live"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (see -list), or 'all'")
		worker    = flag.Bool("worker", false, "run as a distributed-sweep worker on stdin/stdout (started by -dist drivers)")
		distN     = flag.Int("dist", 0, "fan factorial designs over this many worker processes (0 = in-process)")
		list      = flag.Bool("list", false, "list available experiments")
		duration  = flag.Float64("duration", 10, "simulated seconds per run")
		reps      = flag.Int("reps", 3, "replications for factorial designs (paper: 50)")
		testbedMS = flag.Int("testbed-ms", 250, "wall-clock milliseconds per measurement run")
		csv       = flag.Bool("csv", false, "emit figures as CSV")
		plot      = flag.Bool("plot", false, "additionally render figures as ASCII charts")
		paper     = flag.Bool("paper", false, "paper-scale options (100 s, r=50, 5 s testbed; slow)")
		seed      = cli.Seed(flag.CommandLine)
		policy    = cli.Policy(flag.CommandLine)
		parallel  = cli.Parallel(flag.CommandLine)
		outPath   = cli.Out(flag.CommandLine)
		httpAddr  = cli.HTTP(flag.CommandLine)
		calName   = flag.String("calendar", "auto", "event calendar: auto, heap, bucket (results identical; perf only)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit")
	)
	flag.Parse()

	if *worker {
		if err := dist.ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "roccbench worker:", err)
			os.Exit(1)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roccbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "roccbench:", err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "roccbench:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "roccbench:", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "roccbench: -exp required (or -list); e.g. roccbench -exp fig17")
		os.Exit(2)
	}

	opt := experiments.Options{
		Seed:            *seed,
		DurationUS:      *duration * 1e6,
		Reps:            *reps,
		TestbedDuration: time.Duration(*testbedMS) * time.Millisecond,
		CSV:             *csv,
		Plot:            *plot,
	}
	if *paper {
		opt = experiments.Paper()
		opt.CSV = *csv
		opt.Plot = *plot
		opt.Seed = *seed
	}
	opt.Parallel = *parallel
	opt.DistWorkers = *distN
	if policy.Given() {
		spec := policy.Spec()
		opt.Policy = &spec
	}
	if *httpAddr != "" {
		opt.SweepMetrics = obs.NewSweepMetrics()
		opt.Monitor = dist.NewMonitor()
		srv := live.NewServer(nil)
		srv.Exporter().SetSweep(opt.SweepMetrics)
		srv.SetProgress(func() any { return opt.Monitor.Snapshot() })
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roccbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "roccbench: monitoring on http://%s (/metrics /healthz /progress /debug/pprof/)\n", addr)
	}
	cal, err := des.ParseCalendarKind(*calName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roccbench:", err)
		os.Exit(2)
	}
	opt.Calendar = cal

	code, err := runText(*exp, *outPath, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roccbench:", err)
		os.Exit(code)
	}
}

// runText renders the text experiments named by exp ("all" or an id
// list, run in order: roccbench -exp fig17,fig18,fig19) to -out, or to
// stdout when -out is empty. Every id is resolved before the output file
// is created, so a typo leaves an existing file untouched. The returned
// exit code is 2 for an unknown id and 1 for any other failure.
func runText(exp, outPath string, opt experiments.Options) (int, error) {
	var list []experiments.Experiment
	if exp != "all" {
		for _, id := range expandIDs(exp) {
			e, ok := experiments.ByID(id)
			if !ok {
				return 2, fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			list = append(list, e)
		}
	}
	w, err := cli.Output(outPath)
	if err != nil {
		return 1, err
	}
	if exp == "all" {
		err = experiments.RunAll(w, opt)
	} else {
		for _, e := range list {
			fmt.Fprintf(w, "# %s — %s\n", e.ID, e.Title)
			if err = e.Run(w, opt); err != nil {
				break
			}
		}
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 1, err
	}
	return 0, nil
}

// expandIDs splits a comma-separated -exp id list.
func expandIDs(exp string) []string {
	var ids []string
	for _, id := range strings.Split(exp, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}
