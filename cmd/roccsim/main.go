// Command roccsim runs a single ROCC simulation scenario and prints its
// metrics. Every factor of the paper's experiments is a flag.
//
// Examples:
//
//	roccsim -arch now -nodes 8 -sp 40 -policy cf
//	roccsim -arch mpp -nodes 256 -policy bf -batch 32 -forward tree
//	roccsim -arch smp -nodes 16 -procs 32 -pds 2 -policy bf -batch 32
//	roccsim -nodes 8 -reps 5 -json -out run.json  # scenario + results as JSON
//	roccsim -nodes 8 -trace run.json            # Chrome/Perfetto trace
//	roccsim -nodes 8 -trace run.txt             # AIX-like text trace
//	roccsim -nodes 64 -duration 1000 -http :0   # live /metrics + pprof while it runs
//	roccsim -nodes 8 -policy bf -batch 64 -stages  # per-stage latency waterfall
//	roccsim -cpuprofile cpu.pprof -log - -loglevel debug
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"

	"rocc/internal/cli"
	"rocc/internal/core"
	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/obs"
	"rocc/internal/obs/live"
	"rocc/internal/obs/prov"
	"rocc/internal/report"
	"rocc/internal/scenario"
	"rocc/internal/trace"
)

func main() {
	var (
		arch     = flag.String("arch", "now", "architecture: now, smp, mpp")
		nodes    = flag.Int("nodes", 8, "number of nodes (CPUs for SMP)")
		procs    = flag.Int("procs", 1, "application processes per node (total for SMP)")
		pds      = flag.Int("pds", 1, "Paradyn daemons (per node; total for SMP)")
		spMS     = flag.Float64("sp", 40, "sampling period in milliseconds (0 = uninstrumented)")
		policy   = cli.Policy(flag.CommandLine)
		batch    = flag.Int("batch", 32, "batch size under the BF policy")
		fwd      = flag.String("forward", "direct", "forwarding configuration: direct or tree (MPP)")
		dur      = flag.Float64("duration", 100, "simulated seconds")
		seed     = cli.Seed(flag.CommandLine)
		pipeCap  = flag.Int("pipe", 256, "pipe capacity in samples")
		quantum  = flag.Float64("quantum", 10000, "CPU scheduling quantum in microseconds")
		barrier  = flag.Float64("barrier", 0, "barrier period in milliseconds (0 = none)")
		commApp  = flag.Bool("comm", false, "communication-intensive application type")
		noBg     = flag.Bool("nobg", false, "disable PVM daemon and other background processes")
		reps     = flag.Int("reps", 1, "replications (CI printed when > 1)")
		parallel = cli.Parallel(flag.CommandLine)
		jsonOut  = cli.JSON(flag.CommandLine)
		outPath  = cli.Out(flag.CommandLine)
		warmup   = flag.Float64("warmup", 0, "warmup seconds discarded before measurement")
		traceOut = flag.String("trace", "", "export the run's trace (.json = Chrome/Perfetto, else AIX-like text)")
		stages   = flag.Bool("stages", false, "decompose sample latency per stage (waterfall; LatencyStages in -json)")
		httpAddr = cli.HTTP(flag.CommandLine)
		cfgIn    = flag.String("config", "", "load the scenario from a JSON file (other flags ignored)")
		cfgOut   = flag.String("save-config", "", "write the scenario as JSON and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit")
		execTr   = flag.String("exectrace", "", "write a Go runtime execution trace")
		logDest  = flag.String("log", "", "write structured run logs to this file (\"-\" = stderr)")
		logLevel = flag.String("loglevel", "info", "log level: debug, info, warn, error")
		calName  = flag.String("calendar", "auto", "event calendar: auto, heap, bucket (results identical; perf only)")
	)
	flag.Parse()

	calKind, err := des.ParseCalendarKind(*calName)
	if err != nil {
		fatal("%v", err)
	}

	stopProf := startProfiling(*cpuProf, *execTr)
	logger := openLogger(*logDest, *logLevel)

	if *cfgIn != "" {
		runFromFile(*cfgIn, calKind, *reps, *parallel, *jsonOut, *outPath)
		stopProf()
		writeMemProfile(*memProf)
		return
	}

	cfg := core.DefaultConfig()
	switch strings.ToLower(*arch) {
	case "now":
		cfg.Arch = core.NOW
	case "smp":
		cfg.Arch = core.SMP
	case "mpp":
		cfg.Arch = core.MPP
	default:
		fatal("unknown architecture %q", *arch)
	}
	cfg.Nodes = *nodes
	cfg.AppProcs = *procs
	cfg.Pds = *pds
	cfg.SamplingPeriod = *spMS * 1000
	policy.Apply(&cfg.Policy, &cfg.BatchSize, &cfg.Strategy, *batch)
	fwdCfg, err := forward.ParseConfig(*fwd)
	if err != nil {
		fatal("%v", err)
	}
	cfg.Forwarding = fwdCfg
	cfg.Duration = *dur * 1e6
	cfg.Seed = *seed
	cfg.PipeCapacity = *pipeCap
	cfg.Quantum = *quantum
	cfg.BarrierPeriod = *barrier * 1000
	cfg.Background = !*noBg
	cfg.Warmup = *warmup * 1e6
	cfg.Calendar = calKind
	if *commApp {
		cfg.Workload = core.CommIntensive.Apply(core.DefaultWorkload())
	}

	if *cfgOut != "" {
		f, err := os.Create(*cfgOut)
		if err != nil {
			fatal("%v", err)
		}
		if err := scenario.Save(f, scenario.FromConfig(cfg)); err != nil {
			f.Close()
			fatal("%v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote scenario to %s\n", *cfgOut)
		return
	}

	var res core.Result
	var rep core.Replicated
	if *traceOut != "" || *httpAddr != "" || *stages {
		// Tracing, live monitoring, and stage decomposition require direct
		// model access: a single run with metrics, plus the trace sink
		// only when -trace writes it and provenance only for -stages.
		m, err := core.New(cfg)
		if err != nil {
			fatal("%v", err)
		}
		c, err := m.EnableObservability(core.ObsOptions{Trace: *traceOut != "", Metrics: true, Provenance: *stages})
		if err != nil {
			fatal("%v", err)
		}
		if *httpAddr != "" {
			// The run's counters, histogram, and sampler series are
			// race-safe by construction, so scraping mid-run is sound.
			srv := live.NewServer(nil)
			srv.Exporter().SetRun(c.Metrics)
			if eng := m.Provenance(); eng != nil {
				for st := prov.Stage(0); st < prov.NumStages; st++ {
					srv.Exporter().AddHistogram(eng.Histogram(st),
						"per-sample dwell in stage "+st.String())
				}
			}
			addr, err := srv.Start(*httpAddr)
			if err != nil {
				fatal("%v", err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "roccsim: monitoring on http://%s (/metrics /healthz /debug/pprof/)\n", addr)
		}
		logger.SetClock(func() float64 { return float64(m.Sim.Now()) })
		logger.Info("run started", "arch", cfg.Arch.String(), "nodes", cfg.Nodes,
			"policy", cfg.Policy.String(), "duration_sec", cfg.Duration/1e6, "seed", cfg.Seed)
		res = m.Run()
		logger.Info("run finished",
			"generated", c.Metrics.Generated.Value(),
			"delivered", c.Metrics.Delivered.Value(),
			"dropped", c.Metrics.Dropped.Value(),
			"events", c.Metrics.Events.Value())
		rep = core.Replicated{Results: []core.Result{res}}
		if *traceOut != "" {
			if err := writeTrace(*traceOut, c); err != nil {
				fatal("writing trace: %v", err)
			}
		}
		*reps = 1
	} else {
		logger.Info("run started", "arch", cfg.Arch.String(), "nodes", cfg.Nodes,
			"policy", cfg.Policy.String(), "duration_sec", cfg.Duration/1e6,
			"seed", cfg.Seed, "reps", *reps)
		var err error
		rep, err = core.RunReplicationsParallel(cfg, *reps, *parallel)
		if err != nil {
			fatal("%v", err)
		}
		res = rep.Results[0]
		logger.Info("run finished", "generated", res.SamplesGenerated, "delivered", res.SamplesReceived)
	}

	emitResult(cfg, rep, *reps, *jsonOut, *outPath)
	stopProf()
	writeMemProfile(*memProf)
}

// emitResult writes the run's metrics to the -out destination: a text
// table, or with -json a machine-readable {scenario, results} record.
func emitResult(cfg core.Config, rep core.Replicated, reps int, asJSON bool, outPath string) {
	w, err := cli.Output(outPath)
	if err != nil {
		fatal("%v", err)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		err = enc.Encode(struct {
			Scenario scenario.Spec `json:"scenario"`
			Results  []core.Result `json:"results"`
		}{scenario.FromConfig(cfg), rep.Results})
	} else {
		err = printResult(w, cfg, rep, reps)
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal("%v", err)
	}
}

// writeTrace exports the collected trace: Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing) when the path ends in .json, the AIX-like
// text format (readable by rocctrace) otherwise.
func writeTrace(path string, c *obs.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		if err := c.Sink.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		spans, records := c.Sink.Counts()
		fmt.Printf("wrote Chrome trace (%d spans + %d events) to %s\n", spans, records, path)
		return nil
	}
	recs := c.Sink.TraceRecords()
	if err := trace.WriteText(f, recs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d occupancy records to %s\n", len(recs), path)
	return nil
}

// startProfiling begins the requested runtime profiles and returns a stop
// function (a no-op when no profiling flags were given).
func startProfiling(cpu, exec string) func() {
	var stops []func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("%v", err)
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if exec != "" {
		f, err := os.Create(exec)
		if err != nil {
			fatal("%v", err)
		}
		if err := rtrace.Start(f); err != nil {
			fatal("%v", err)
		}
		stops = append(stops, func() { rtrace.Stop(); f.Close() })
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
}

// writeMemProfile dumps a heap profile after a GC, if requested.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		fatal("%v", err)
	}
	if err := f.Close(); err != nil {
		fatal("%v", err)
	}
}

// openLogger builds the structured run logger; nil (safe to call) when -log
// was not given.
func openLogger(dest, level string) *obs.Logger {
	if dest == "" {
		return nil
	}
	lv, err := obs.ParseLevel(level)
	if err != nil {
		fatal("%v", err)
	}
	if dest == "-" {
		return obs.NewLogger(os.Stderr, lv)
	}
	f, err := os.Create(dest)
	if err != nil {
		fatal("%v", err)
	}
	return obs.NewLogger(f, lv)
}

// policyLabel renders the forwarding policy for titles: the strategy's
// -policy spec when one is wired, the legacy "CF(batch 1)"/"BF(batch n)"
// form otherwise (so legacy output is unchanged).
func policyLabel(cfg core.Config) string {
	if cfg.Strategy != nil {
		return cfg.Strategy.String()
	}
	return fmt.Sprintf("%s(batch %d)", cfg.Policy, cfg.BatchSize)
}

// printResult renders the metric table for a (possibly replicated) run.
func printResult(w io.Writer, cfg core.Config, rep core.Replicated, reps int) error {
	res := rep.Results[0]
	t := report.NewTable(fmt.Sprintf("ROCC simulation: %s, %d nodes, SP=%.1f ms, %s, %s forwarding",
		cfg.Arch, cfg.Nodes, cfg.SamplingPeriod/1000, policyLabel(cfg), cfg.Forwarding),
		"metric", "value")
	row := func(name string, m core.Metric) {
		if reps > 1 {
			ci := rep.CI(m, 0.90)
			t.AddRow(name, fmt.Sprintf("%s ± %s (90%% CI)", report.F(ci.Mean), report.F(ci.HalfWidth)))
		} else {
			t.AddRow(name, report.F(m(res)))
		}
	}
	row("Pd CPU time/node (sec)", core.MetricPdCPUTime)
	row("Pd CPU utilization/node (%)", core.MetricPdCPUUtil)
	row("main Paradyn CPU time (sec)", core.MetricMainCPUTime)
	row("main Paradyn CPU utilization (%)", core.MetricMainCPUUtil)
	row("IS CPU utilization/node (%)", core.MetricISCPUUtil)
	row("application CPU utilization/node (%)", core.MetricAppCPUUtil)
	row("monitoring latency/sample (sec)", core.MetricLatency)
	if res.MonitoringLatencyP50Sec > 0 {
		// Histogram quantiles exist only when the observability layer ran.
		t.AddRow("monitoring latency P50 (sec)", report.F(res.MonitoringLatencyP50Sec))
		t.AddRow("monitoring latency P99 (sec)", report.F(res.MonitoringLatencyP99Sec))
	}
	row("monitoring latency P95 (sec)", core.MetricLatencyP95)
	row("monitoring latency max (sec)", core.MetricLatencyMax)
	row("forwarding latency/sample (sec)", core.MetricFwdLatency)
	row("throughput at main (samples/sec)", core.MetricThroughput)
	row("Pd forwarding throughput (samples/sec)", core.MetricPdThroughput)
	row("network utilization (%)", core.MetricNetUtil)
	t.AddRow("samples generated", fmt.Sprint(res.SamplesGenerated))
	t.AddRow("samples received", fmt.Sprint(res.SamplesReceived))
	t.AddRow("messages merged (tree)", fmt.Sprint(res.MessagesMerged))
	t.AddRow("blocked pipe writes", fmt.Sprint(res.BlockedPuts))
	if res.AdaptiveFinalBatchMean > 0 {
		t.AddRow("adaptive batch target (final mean)", report.F(res.AdaptiveFinalBatchMean))
		t.AddRow("adaptive batch target (final min-max)",
			fmt.Sprintf("%d-%d", res.AdaptiveFinalBatchMin, res.AdaptiveFinalBatchMax))
		t.AddRow("adaptive adjustments", fmt.Sprint(res.AdaptiveAdjustments))
	}
	if res.BarrierReleases > 0 {
		t.AddRow("barrier releases", fmt.Sprint(res.BarrierReleases))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if len(res.LatencyStages) > 0 {
		wf := report.Waterfall{Title: "latency decomposition (per-stage dwell)", Rows: core.StageRows(res.LatencyStages)}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		return wf.Render(w)
	}
	return nil
}

// runFromFile loads a JSON scenario, runs it, and prints the metrics.
// The calendar kind comes from the -calendar flag: scenarios never carry
// it (it cannot change results), so the CLI choice applies here too.
func runFromFile(path string, cal des.CalendarKind, reps, parallel int, asJSON bool, outPath string) {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	spec, err := scenario.Load(f)
	f.Close()
	if err != nil {
		fatal("%v", err)
	}
	cfg, err := spec.Config()
	if err != nil {
		fatal("%v", err)
	}
	cfg.Calendar = cal
	rep, err := core.RunReplicationsParallel(cfg, reps, parallel)
	if err != nil {
		fatal("%v", err)
	}
	emitResult(cfg, rep, reps, asJSON, outPath)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "roccsim: "+format+"\n", args...)
	os.Exit(1)
}
