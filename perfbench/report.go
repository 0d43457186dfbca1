package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"rocc/internal/core"
)

// runReport is everything one benchmark run measured and checked.
type runReport struct {
	workload  string
	seed      uint64
	traced    bool
	setup     []float64 // set-up probe times, s
	ref       *pass     // untimed warm-up pass: the determinism reference
	passes    []*pass   // timed passes (every second one traced in a traced run)
	verifyIdx []int
	verify    []jobResult
	manifest  manifest
	refJSON   [][]byte // canonical results of the warm-up pass

	attempted, failed int
	failures          []string // the first few, for the report
}

// metric is one reported figure. Timings carry their stability summary
// across the passes (n, quartiles, CV).
type metric struct {
	name, unit string
	value      float64
	n          int
	spread     *summary
	note       string
}

func (r *runReport) fail(msg string) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, msg)
	}
}

func newRunReport(workload string, seed uint64, traced bool, setup []float64, ref *pass) *runReport {
	r := &runReport{workload: workload, seed: seed, traced: traced, setup: setup, ref: ref,
		refJSON: make([][]byte, len(ref.jobs))}
	for i, j := range ref.jobs {
		r.refJSON[i] = canonical(j.res)
	}
	r.checkPass(0, ref)
	return r
}

// addPass checks a timed pass, then drops what the metrics do not need,
// so results kept from earlier passes do not inflate later passes' peak
// RSS.
func (r *runReport) addPass(p *pass) {
	r.checkPass(len(r.passes)+1, p)
	for i, j := range p.jobs {
		p.jobs[i].res = core.Result{SamplesReceived: j.res.SamplesReceived, SamplesGenerated: j.res.SamplesGenerated}
	}
	p.cfgs, p.output = nil, nil
	r.passes = append(r.passes, p)
}

// checkPass applies the output checks to pass k (0 = warm-up): every
// job's invariants, and byte-identity of every job, its counters and the
// rendered output with the warm-up pass.
func (r *runReport) checkPass(k int, p *pass) {
	r.attempted += len(p.jobs)
	for i, j := range p.jobs {
		bad := checkResult(p.cfgs[i], j.res)
		if k > 0 && !bytes.Equal(canonical(j.res), r.refJSON[i]) {
			bad = append(bad, "result differs from the warm-up pass")
		}
		if k > 0 && j.counters != r.ref.jobs[i].counters {
			bad = append(bad, "work counters differ from the warm-up pass")
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			r.fail(fmt.Sprintf("pass %d job %d: %s", k, i, strings.Join(bad, "; ")))
		}
	}
	if k > 0 && !bytes.Equal(p.output, r.ref.output) {
		r.fail(fmt.Sprintf("pass %d: rendered output differs from the warm-up pass", k))
	}
	for _, err := range p.errs {
		r.fail(fmt.Sprintf("pass %d: %v", k, err))
	}
}

// checkVerification demands that jobs re-run another way (other worker
// count, in-process instead of distributed) match the warm-up pass, and
// that every run of a job reads the same work counters.
func (r *runReport) checkVerification(idx []int, replay []jobResult) {
	r.verifyIdx, r.verify = idx, replay
	r.attempted += len(r.verify)
	seen := map[int]counters{}
	for i, j := range r.ref.jobs {
		if j.counters.Calendar != "" {
			seen[i] = j.counters
		}
	}
	for k, i := range r.verifyIdx {
		v := r.verify[k]
		bad := checkResult(r.ref.cfgs[i], v.res)
		if !bytes.Equal(canonical(v.res), r.refJSON[i]) {
			bad = append(bad, "result differs between worker counts or between the distributed and local runs")
		}
		if c, ok := seen[i]; !ok {
			seen[i] = v.counters
		} else if v.counters != c {
			bad = append(bad, "work counters differ between runs of the job")
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			r.fail(fmt.Sprintf("verification job %d: %s", i, strings.Join(bad, "; ")))
		}
	}
}

// inProcess reports whether the passes ran their jobs in this process,
// so each job carries its model's counters and step timings.
func (r *runReport) inProcess() bool { return r.ref.jobs[0].counters.Calendar != "" }

// countedJobs returns the ref pass's jobs with their model counters: the
// pass's own when it ran in-process, else the in-process replay's.
func (r *runReport) countedJobs() []jobResult {
	if r.inProcess() {
		return r.ref.jobs
	}
	out := make([]jobResult, len(r.ref.jobs))
	for k, i := range r.verifyIdx {
		if out[i].counters.Calendar == "" {
			out[i] = r.verify[k]
		}
	}
	return out
}

// timed returns the timed passes that were (traced) or were not
// (untraced) traced; end-to-end metrics come from the untraced ones.
func (r *runReport) timed(traced bool) []*pass {
	var out []*pass
	for _, p := range r.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// perPass summarizes f over passes as a timing metric.
func perPass(name, unit string, ps []*pass, f func(*pass) float64) metric {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	s := summarize(xs)
	return metric{name: name, unit: unit, value: s.Median, n: s.N, spread: &s}
}

func samplesOf(jobs []jobResult) (received, generated int) {
	for _, j := range jobs {
		received += j.res.SamplesReceived
		generated += j.res.SamplesGenerated
	}
	return
}

// endToEnd computes the metrics a user of the simulator sees, from the
// untraced passes.
func (r *runReport) endToEnd() []metric {
	ps := r.timed(false)
	var jobMS []float64
	for _, p := range ps {
		for _, j := range p.jobs {
			jobMS = append(jobMS, float64(j.ns)/1e6)
		}
	}
	p50 := summarize(jobMS)
	tailM := jobTail(ps, jobMS)
	setup := summarize(r.setup)
	return []metric{
		perPass("wall_s", "s", ps, func(p *pass) float64 { return p.wall.Seconds() }),
		perPass("jobs_per_s", "1/s", ps, func(p *pass) float64 { return float64(len(p.jobs)) / p.wall.Seconds() }),
		perPass("ns_per_sample", "ns", ps, nsPerSample),
		{name: "job_ms_p50", unit: "ms", value: p50.Median, n: len(jobMS), spread: &p50},
		tailM,
		perPass("alloc_mb", "MB", ps, func(p *pass) float64 {
			return float64(p.rt.AllocBytes+p.workerRT.AllocBytes) / 1e6
		}),
		perPass("peak_rss_mb", "MB", ps, func(p *pass) float64 { return float64(p.rssKB+p.workerRSSKB) / 1024 }),
		{name: "setup_s", unit: "s", value: setup.Median, n: setup.N, spread: &setup,
			note: "process start to first job running"},
	}
}

// jobTail is the highest percentile of job time with at least ten jobs
// beyond it. A pass of more than ten jobs has its own, and the metric is
// the median over passes; smaller passes are pooled.
func jobTail(ps []*pass, pooled []float64) metric {
	n := len(ps[0].jobs)
	if n <= 10 {
		v, pct := tail(pooled)
		return metric{name: "job_ms_tail", unit: "ms", value: v, n: len(pooled),
			note: fmt.Sprintf("p%.2f of %d pooled jobs: the highest percentile with >= 10 beyond it", pct, len(pooled))}
	}
	var pct float64
	m := perPass("job_ms_tail", "ms", ps, func(p *pass) float64 {
		ms := make([]float64, len(p.jobs))
		for i, j := range p.jobs {
			ms[i] = float64(j.ns) / 1e6
		}
		var v float64
		v, pct = tail(ms)
		return v
	})
	m.note = fmt.Sprintf("p%.2f of the %d jobs of each pass (the highest percentile with >= 10 beyond it), median over passes", pct, n)
	return m
}

// nsPerSample is host time per sample delivered to main; jobs that
// delivered nothing have no latency or cost per sample and are left out.
func nsPerSample(p *pass) float64 {
	recv, _ := samplesOf(p.jobs)
	return sumOf(p.jobs, func(j jobResult) int64 {
		if j.res.SamplesReceived == 0 {
			return 0
		}
		return j.ns
	}) / float64(recv)
}

func noDataJobs(jobs []jobResult) int {
	n := 0
	for _, j := range jobs {
		if j.res.SamplesReceived == 0 {
			n++
		}
	}
	return n
}

func sumOf(jobs []jobResult, f func(jobResult) int64) float64 {
	var s int64
	for _, j := range jobs {
		s += f(j)
	}
	return float64(s)
}

// layer summarizes a figure the workload recorded in each pass.
func layer(name, unit string, ps []*pass) metric {
	return perPass(name, unit, ps, func(p *pass) float64 { return p.layer[name] })
}

// perLayer computes the layer metrics: deterministic work counters, the
// benchmark's own timings of its calls into each layer, runtime costs,
// and the CPU profile's split by module.
func (r *runReport) perLayer() []metric {
	ps := r.timed(false)
	cj := r.countedJobs()
	var c counters
	var fwd, merged, adj, retx, lost, dups, msgs int
	for _, j := range cj {
		c.Events += j.counters.Events
		c.PipePuts += j.counters.PipePuts
		c.PipeDropped += j.counters.PipeDropped
		c.PipeBlockedWaitSec += j.counters.PipeBlockedWaitSec
		c.NetTransfers += j.counters.NetTransfers
		res := j.res
		fwd += res.MessagesForwarded
		merged += res.MessagesMerged
		msgs += res.MessagesReceived
		adj += res.AdaptiveAdjustments
		retx += res.Retransmits
		lost += res.SamplesLostForwarding + res.CrashLostSamples
		dups += res.DupMessagesDiscarded
	}
	recv, gen := samplesOf(r.ref.jobs)
	events := float64(c.Events)
	count := func(name string, v float64) metric { return metric{name: name, unit: "count", value: v, n: 1} }
	ratio := func(name string, v float64) metric { return metric{name: name, unit: "ratio", value: v, n: 1} }

	// Per-job step timings come from in-process runs: the passes
	// themselves, or for the distributed sweep its in-process replay,
	// which also times scenario.Spec.Config per job.
	stepSource := ps
	configMS := layer("scenario.config_ms", "ms", ps)
	if !r.inProcess() {
		stepSource = []*pass{{jobs: cj}}
		configMS = metric{name: "scenario.config_ms", unit: "ms", n: len(cj),
			value: sumOf(cj, func(j jobResult) int64 { return j.configNs }) / float64(len(cj)) / 1e6}
	}

	out := []metric{
		count("des.events", events),
		perPass("des.ns_per_event", "ns", stepSource, func(p *pass) float64 {
			return sumOf(p.jobs, func(j jobResult) int64 { return j.runNs }) / events
		}),
		perPass("runtime.gc_cpu_frac", "ratio", ps, func(p *pass) float64 {
			return (p.rt.GCCPU + p.workerRT.GCCPU) / (p.rt.UsedCPU + p.workerRT.UsedCPU)
		}),
		perPass("runtime.gc_cycles", "count", ps, func(p *pass) float64 {
			return float64(p.rt.GCCycles + p.workerRT.GCCycles)
		}),
		perPass("runtime.allocs_per_event", "count", ps, func(p *pass) float64 {
			return float64(p.rt.AllocObjects+p.workerRT.AllocObjects) / events
		}),
		perPass("runtime.bytes_per_sample", "B", ps, func(p *pass) float64 {
			return float64(p.rt.AllocBytes+p.workerRT.AllocBytes) / float64(recv)
		}),
		count("resources.pipe_puts", float64(c.PipePuts)),
		count("resources.pipe_dropped", float64(c.PipeDropped)),
		{name: "resources.pipe_blocked_wait_s", unit: "s", value: c.PipeBlockedWaitSec, n: 1, note: "simulated time"},
		count("resources.net_transfers", float64(c.NetTransfers)),
		count("procs.messages_forwarded", float64(fwd)),
		count("procs.messages_merged", float64(merged)),
		ratio("procs.delivery_ratio", float64(recv)/float64(gen)),
		count("procs.no_data_jobs", float64(noDataJobs(r.ref.jobs))),
		ratio("forward.samples_per_message", float64(recv)/float64(msgs)),
		count("forward.adaptive_adjustments", float64(adj)),
		count("faults.retransmits", float64(retx)),
		count("faults.samples_lost", float64(lost)),
		count("faults.dup_discarded", float64(dups)),
		perPass("core.new_ms", "ms", stepSource, func(p *pass) float64 {
			return sumOf(p.jobs, func(j jobResult) int64 { return j.newNs }) / float64(len(p.jobs)) / 1e6
		}),
		perPass("core.run_ms", "ms", stepSource, func(p *pass) float64 {
			return sumOf(p.jobs, func(j jobResult) int64 { return j.runNs }) / float64(len(p.jobs)) / 1e6
		}),
		configMS,
		layer("dist.worker_start_ms", "ms", ps),
		layer("dist.overhead_ms_per_job", "ms", r.timed(true)),
		layer("dist.retries", "count", ps),
		perPass("par.busy_frac", "ratio", ps, func(p *pass) float64 {
			return sumOf(p.jobs, func(j jobResult) int64 { return j.ns }) / (float64(p.workers) * float64(p.wall.Nanoseconds()))
		}),
		layer("doe.analysis_ms", "ms", ps),
	}

	cpu := cpuByModule{}
	for _, p := range r.timed(true) {
		cpu.add(p.cpu)
	}
	total := float64(cpu.total())
	for _, m := range modules {
		out = append(out, metric{name: m + ".cpu_share", unit: "ratio", value: float64(cpu[m]) / total,
			n: len(r.timed(true)), note: fmt.Sprintf("%.0f ms of CPU in profiles", float64(cpu[m])/1e6)})
	}
	tracedWall := perPass("", "", r.timed(true), func(p *pass) float64 { return p.wall.Seconds() })
	untracedWall := perPass("", "", ps, func(p *pass) float64 { return p.wall.Seconds() })
	out = append(out, metric{name: "trace.overhead_s", unit: "s", value: tracedWall.value - untracedWall.value,
		n: tracedWall.n, note: fmt.Sprintf("traced wall_s %.4f minus untraced %.4f", tracedWall.value, untracedWall.value)})
	return out
}

// metrics returns the metrics this run reports in its result line.
func (r *runReport) metrics() []metric {
	if r.traced {
		return r.perLayer()
	}
	return r.endToEnd()
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// result is the last line of the output.
func (r *runReport) result() result {
	out := result{Attempted: r.attempted, Metrics: map[string]resultValue{}}
	for _, m := range r.metrics() {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(fmt.Sprintf("metric %s is undefined", m.name))
			v = 0
		}
		out.Metrics[m.name] = resultValue{Value: v, Unit: m.unit}
	}
	out.Failed = r.failed
	out.Correct = r.failed == 0
	return out
}

func (r *runReport) print(w io.Writer) {
	timed, traced := len(r.timed(false)), len(r.timed(true))
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v\n", r.workload, r.seed, r.traced)
	r.manifest.print(w)
	fmt.Fprintf(w, "closed loop: %d jobs per pass on %d worker(s); 1 warm-up pass, %d timed passes, %d traced passes\n",
		len(r.ref.jobs), r.ref.workers, timed, traced)
	printMetrics(w, "end-to-end (untraced passes)", r.endToEnd())
	if r.traced {
		printMetrics(w, "per-layer", r.perLayer())
	}
	fmt.Fprintf(w, "failed_frac %.6f (%d of %d jobs failed a check); no_data_jobs %d per pass (latency missing, left out of ns_per_sample)\n",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted, noDataJobs(r.ref.jobs))
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	if f := r.ref.fidelity; f != nil {
		fmt.Fprintf(w, "fidelity, Table 3 cell (100 s): application CPU %.4f%% vs measured %.2f%% (%+.4f pp, %+.2f%%); "+
			"daemon CPU %.4f%% vs measured %.2f%% (%+.4f pp, %+.2f%%)\n",
			f.AppPct, table3AppPct, f.AppErrPP, 100*f.AppRelErr, f.DaemonPct, table3DaemonPct, f.DaemonErrPP, 100*f.DaemonRelErr)
		fmt.Fprintln(w, "  (the other xval paper points are reconstructed from the paper's equations, not measured)")
	}
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s:\n", title)
	fmt.Fprintf(w, "  %-30s %14s %-6s %6s %14s %14s %7s %-9s\n", "metric", "value", "unit", "n", "q1", "q3", "cv", "class")
	for _, m := range ms {
		if m.spread != nil && m.spread.N > 1 {
			fmt.Fprintf(w, "  %-30s %14.6g %-6s %6d %14.6g %14.6g %7.4f %-9s %s\n", m.name, m.value, m.unit, m.n,
				m.spread.Q1, m.spread.Q3, m.spread.CV, m.spread.class(), m.note)
		} else {
			fmt.Fprintf(w, "  %-30s %14.6g %-6s %6d %14s %14s %7s %-9s %s\n", m.name, m.value, m.unit, m.n, "", "", "", "", m.note)
		}
	}
}
