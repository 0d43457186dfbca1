package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"rocc/internal/core"
	"rocc/internal/doe"
	"rocc/internal/par"
	"rocc/internal/report"
	"rocc/internal/scenario"
	"rocc/internal/stats"
)

// paper-factorial: the Table 4 (NOW) and Table 5 (SMP) 2^4·r designs plus
// the Table 3 validation cell, fanned out through par.Map with
// observability off and finished with doe.Analyze2KR and report
// rendering, as roccbench -exp table4/table5/fig16/fig20 do.

const (
	factorialDurationUS = 2e6 // the bench and CI scale of the factorial experiments
	factorialReps       = 3
)

// Table 3's measured utilizations on the SP-2 (application and Paradyn
// daemon, percent of one CPU over the 100 s pvmbt run).
const (
	table3AppPct    = 85.71
	table3DaemonPct = 0.74
)

// factorialTable is one 2^4·r design inside the pass's job list.
type factorialTable struct {
	title, overheadCol, fig, overhead string
	factors                           []string
	labels                            []string
	first                             int // index of the table's first job
}

// factorialPlan is the generated input of one paper-factorial pass.
type factorialPlan struct {
	jobs     []job
	tables   []factorialTable
	table3   int   // job index of the Table 3 validation cell
	configNs int64 // scenario.Spec.Config time over all cells
	cells    int
}

func planFactorial(seed uint64) (factorialPlan, error) {
	var p factorialPlan
	for _, t := range []struct {
		g                                 scenario.Grid
		title, overheadCol, fig, overhead string
	}{
		{scenario.Table4Grid(), "Table 4: NOW simulation results (means of r replications, 90% CI half-widths)",
			"Pd CPU time/node (sec)", "Figure 16 (NOW)", "Pd CPU time"},
		{scenario.Table5Grid(), "Table 5: SMP simulation results (number of app processes = number of nodes)",
			"IS CPU time/node (sec)", "Figure 20 (SMP)", "IS CPU time"},
	} {
		ft := factorialTable{title: t.title, overheadCol: t.overheadCol, fig: t.fig, overhead: t.overhead,
			factors: t.g.Factors, first: len(p.jobs)}
		for i, cell := range t.g.Cells {
			t0 := time.Now()
			cfg, err := cell.Spec.Config()
			p.configNs += time.Since(t0).Nanoseconds()
			p.cells++
			if err != nil {
				return p, fmt.Errorf("grid %s cell %s: %w", t.g.Name, cell.ID, err)
			}
			cfg.Duration = factorialDurationUS
			ft.labels = append(ft.labels, cell.Label)
			// The seed chain of roccbench's runFactorial: row i of a design
			// replicates with FactorialReplicationSeeds(master, i, r).
			for _, s := range core.FactorialReplicationSeeds(seed, i, factorialReps) {
				c := cfg
				c.Seed = s
				p.jobs = append(p.jobs, job{label: cell.Label, cfg: c})
			}
		}
		p.tables = append(p.tables, ft)
	}
	for _, cell := range scenario.PaperGrid().Cells {
		if cell.Group != "table3" {
			continue
		}
		t0 := time.Now()
		cfg, err := cell.Spec.Config()
		p.configNs += time.Since(t0).Nanoseconds()
		p.cells++
		if err != nil {
			return p, fmt.Errorf("table3 cell: %w", err)
		}
		// The cell keeps its own 100 s duration, the length of the paper's
		// measured run; the seed is the master seed, as in roccbench table3.
		cfg.Seed = seed
		p.table3 = len(p.jobs)
		p.jobs = append(p.jobs, job{label: "table3 " + cell.Label, cfg: cfg})
	}
	return p, nil
}

// runJobs fans jobs out over workers with par.Map.
func runJobs(workers int, jobs []job, obs bool) ([]jobResult, error) {
	return par.Map(workers, jobs, func(_ int, j job) (jobResult, error) { return runModel(j, obs) })
}

type paperFactorial struct{ workers int }

func (w paperFactorial) name() string { return "paper-factorial" }

func (w paperFactorial) pass(seed uint64, traced bool) (*pass, error) {
	t0 := time.Now()
	plan, err := planFactorial(seed)
	if err != nil {
		return nil, err
	}
	results, err := runJobs(w.workers, plan.jobs, false)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	analysisNs, err := renderFactorial(&out, plan, results)
	if err != nil {
		return nil, err
	}
	p := &pass{
		wall:    time.Since(t0),
		jobs:    results,
		cfgs:    configsOf(plan.jobs),
		workers: w.workers,
		output:  out.Bytes(),
		layer: map[string]float64{
			"scenario.config_ms": float64(plan.configNs) / 1e6 / float64(plan.cells),
			"doe.analysis_ms":    float64(analysisNs) / 1e6,
		},
	}
	p.fidelity = table3Fidelity(results[plan.table3].res)
	return p, nil
}

// verify re-runs a seed-chosen subset of the jobs serially and compares
// them with the pass, which ran them at the full worker count.
func (w paperFactorial) verify(seed uint64) ([]int, []jobResult, error) {
	plan, err := planFactorial(seed)
	if err != nil {
		return nil, nil, err
	}
	idx := sampleIndices(len(plan.jobs), 8, seed)
	sub := make([]job, len(idx))
	for k, i := range idx {
		sub[k] = plan.jobs[i]
	}
	res, err := runJobs(1, sub, false)
	return idx, res, err
}

func (w paperFactorial) firstJob(seed uint64, started func()) error {
	plan, err := planFactorial(seed)
	if err != nil {
		return err
	}
	return startJobs(w.workers, plan.jobs, started)
}

// renderFactorial writes each table and its allocation of variation, as
// roccbench table4/fig16 and table5/fig20 print them, and returns the
// time spent in doe.Analyze2KR.
func renderFactorial(w io.Writer, plan factorialPlan, results []jobResult) (int64, error) {
	var analysisNs int64
	for _, t := range plan.tables {
		ov := make([][]float64, len(t.labels))
		lat := make([][]float64, len(t.labels))
		for i := range t.labels {
			for r := 0; r < factorialReps; r++ {
				res := results[t.first+i*factorialReps+r].res
				ov[i] = append(ov[i], core.MetricPdCPUTime(res))
				lat[i] = append(lat[i], core.MetricLatency(res))
			}
		}
		tab := report.NewTable(t.title, "configuration", t.overheadCol, "±", "latency/sample (msec)", "±")
		for i, label := range t.labels {
			ovCI, latCI := ciOf(ov[i]), ciOf(lat[i])
			tab.AddRow(label,
				report.F(ovCI.Mean), report.F(ovCI.HalfWidth),
				report.F(latCI.Mean*1000), report.F(latCI.HalfWidth*1000))
		}
		if err := tab.Render(w); err != nil {
			return 0, err
		}
		for _, part := range []struct {
			metric string
			data   [][]float64
		}{{"monitoring latency", lat}, {t.overhead, ov}} {
			a0 := time.Now()
			an, err := doe.Analyze2KR(t.factors, part.data)
			analysisNs += time.Since(a0).Nanoseconds()
			if err != nil {
				return 0, err
			}
			at := report.NewTable(fmt.Sprintf("%s — variation explained for %s", t.fig, part.metric), "term", "fraction")
			for _, e := range an.TopEffects(6) {
				at.AddRow(e.Term, report.Pct(e.Fraction*100))
			}
			at.AddRow("error/rest", report.Pct(an.ErrorFraction*100))
			if err := at.Render(w); err != nil {
				return 0, err
			}
			if _, err := fmt.Fprintf(w, "factors: %s\n", factorLegend(t.factors)); err != nil {
				return 0, err
			}
		}
	}
	return analysisNs, nil
}

func factorLegend(names []string) string {
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%c=%s", 'A'+i, n)
	}
	return strings.Join(parts, ", ")
}

// ciOf is the 90% confidence interval the factorial tables print.
func ciOf(xs []float64) stats.ConfidenceInterval {
	if len(xs) < 2 {
		return stats.ConfidenceInterval{Mean: stats.MeanOf(xs)}
	}
	ci, err := stats.MeanCI(xs, 0.90)
	if err != nil {
		return stats.ConfidenceInterval{Mean: stats.MeanOf(xs)}
	}
	return ci
}

// fidelity compares the Table 3 cell with the paper's measurement.
type fidelity struct {
	AppPct, DaemonPct       float64 // simulated utilizations
	AppErrPP, DaemonErrPP   float64 // simulated minus measured, percentage points
	AppRelErr, DaemonRelErr float64 // relative to the measurement
}

func table3Fidelity(r core.Result) *fidelity {
	return &fidelity{
		AppPct: r.AppCPUUtilPct, DaemonPct: r.PdCPUUtilPct,
		AppErrPP: r.AppCPUUtilPct - table3AppPct, DaemonErrPP: r.PdCPUUtilPct - table3DaemonPct,
		AppRelErr:    (r.AppCPUUtilPct - table3AppPct) / table3AppPct,
		DaemonRelErr: (r.PdCPUUtilPct - table3DaemonPct) / table3DaemonPct,
	}
}

func configsOf(jobs []job) []core.Config {
	out := make([]core.Config, len(jobs))
	for i, j := range jobs {
		out[i] = j.cfg
	}
	return out
}

// sampleIndices picks about n/every job indices, offset by the seed, so
// each seed checks a different subset.
func sampleIndices(n, every int, seed uint64) []int {
	var out []int
	for i := int(seed % uint64(every)); i < n; i += every {
		out = append(out, i)
	}
	return out
}
