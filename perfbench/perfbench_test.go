package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rocc/internal/experiments"
	"rocc/internal/rng"
)

// The sweep workload re-executes the running binary as its workers; in a
// test that binary is the test binary, so it must serve -worker too.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(workerMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// Digests of the canonical Result JSON of one pass at the default seed.
// A change to the simulator that moves any result changes these; a
// performance change must not.
var pinnedDigests = map[string]string{
	"paper-factorial": "51b44192812ec56b3f340258c8d8f252ecedf99b33af379791827b4690f348fe",
	"observed-whatif": "b6316438a44836c73c8800e574e7609ebbad74b690b31c47c327239dd5ca7fad",
	"grid-sweep":      "7119c379dab3d905d9eb6004a4df174650e824f2394eec752d9118627b31629a",
}

// runTwice runs two untraced passes of w at seed plus the verification
// runs, with every output check applied.
func runTwice(t *testing.T, w workload, seed uint64) *runReport {
	t.Helper()
	ref, err := measurePass(w, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	rep := newRunReport(w.name(), seed, false, []float64{0}, ref)
	p, err := measurePass(w, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	rep.addPass(p)
	idx, replay, err := w.verify(seed)
	if err != nil {
		t.Fatal(err)
	}
	rep.checkVerification(idx, replay)
	if rep.failed != 0 {
		t.Fatalf("%s: %d of %d jobs failed a check: %v", w.name(), rep.failed, rep.attempted, rep.failures)
	}
	return rep
}

// deterministic are the per-layer metrics that count work: they must
// repeat exactly for one seed.
func deterministic(rep *runReport) map[string]float64 {
	out := map[string]float64{}
	for _, m := range rep.perLayer() {
		for _, prefix := range []string{"des.events", "procs.", "resources.", "faults.", "forward."} {
			if strings.HasPrefix(m.name, prefix) && !strings.HasSuffix(m.name, ".cpu_share") {
				out[m.name] = m.value
			}
		}
	}
	return out
}

// digest hashes the canonical JSON of the jobs' results.
func digest(js []jobResult) string {
	h := sha256.New()
	for _, j := range js {
		h.Write(canonical(j.res))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestWorkloadsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads(defaultWorkers()) {
		t.Run(w.name(), func(t *testing.T) {
			a, b := runTwice(t, w, 1), runTwice(t, w, 1)
			if got := digest(a.ref.jobs); got != pinnedDigests[w.name()] {
				t.Errorf("result digest %s, pinned %s", got, pinnedDigests[w.name()])
			}
			if digest(a.ref.jobs) != digest(b.ref.jobs) {
				t.Error("results differ between two runs of one seed")
			}
			da, db := deterministic(a), deterministic(b)
			if len(da) < 10 {
				t.Fatalf("only %d deterministic counters", len(da))
			}
			for name, v := range da {
				if db[name] != v {
					t.Errorf("%s: %v then %v", name, v, db[name])
				}
			}
			if w.name() == "paper-factorial" {
				checkRoccbenchOutput(t, a.ref.output)
			}
		})
	}
}

// checkRoccbenchOutput demands that the paper-factorial pass renders
// exactly what roccbench -exp table4, fig16, table5 and fig20 print at the
// same scale and seed.
func checkRoccbenchOutput(t *testing.T, got []byte) {
	var want bytes.Buffer
	for _, id := range []string{"table4", "fig16", "table5", "fig20"} {
		e, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		opt := experiments.Options{DurationUS: factorialDurationUS, Reps: factorialReps, Seed: 1, Parallel: defaultWorkers()}
		if err := e.Run(&want, opt); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("paper-factorial output differs from roccbench:\n--- got\n%s\n--- want\n%s", got, want.Bytes())
	}
}

func TestSetupProbe(t *testing.T) {
	for _, w := range workloads(defaultWorkers()) {
		var called atomic.Int32
		if err := w.firstJob(1, func() { called.Add(1) }); err != nil && !errors.Is(err, errProbeDone) {
			t.Fatalf("%s: %v", w.name(), err)
		}
		if called.Load() == 0 {
			t.Errorf("%s: first job never started", w.name())
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"rocc/internal/des.(*Simulator).Step":                       "des",
		"rocc/internal/obs/prov.(*Engine).Delivered":                "prov",
		"rocc/internal/obs.(*TraceSink).addEvent":                   "obs",
		"rocc/internal/par.Map[go.shape.struct { rocc/x.y }].func1": "other",
		"rocc/internal/scenario.Spec.Config":                        "other",
		"rocc/internal/dist.readFrame":                              "dist",
		"math.Log":                                                  "",
		"main.runModel":                                             "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileAttribution profiles a loop drawing lognormal variates: the
// math.Log inside counts to rng, the innermost repository frame.
func TestProfileAttribution(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip(err)
	}
	s := rng.New(1)
	d := rng.Lognormal{MeanVal: 10, SD: 3}
	var sink float64
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += d.Sample(s)
		}
	}
	pprof.StopCPUProfile()
	cpu, err := attributeProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpu.total() == 0 || math.IsNaN(sink) {
		t.Fatal("empty profile")
	}
	// Of the samples with a repository frame, the loop's belong to rng.
	// (The rest is runtime; under the race detector that includes samples
	// taken inside its C code, which has no Go frames to attribute.)
	if share := float64(cpu["rng"]) / float64(cpu.total()-cpu["runtime"]); share < 0.9 {
		t.Errorf("rng share %.2f of %v, want nearly all repository samples", share, cpu)
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := summarize(xs)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", s.Q1, s.Median, s.Q3)
	}
	// statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
	if s := summarize([]float64{5, 4, 3, 2, 1}); s.Q1 != 1.5 || s.Median != 3 || s.Q3 != 4.5 {
		t.Errorf("quartiles %v %v %v", s.Q1, s.Median, s.Q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	if s := summarize([]float64{3, 1}); s.Q1 != 0.5 || s.Median != 2 || s.Q3 != 3.5 {
		t.Errorf("quartiles %v %v %v", s.Q1, s.Median, s.Q3)
	}
	var big []float64
	for i := 1; i <= 100; i++ {
		big = append(big, float64(i))
	}
	v, p := tail(big)
	if v != 90 || p != 90 {
		t.Errorf("tail = %v at p%v, want 90 at p90", v, p)
	}
}
