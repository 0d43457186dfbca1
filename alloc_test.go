package rocc

import (
	"io"
	"runtime"
	"testing"

	"rocc/internal/experiments"
)

// trackedAllocPins caps the heap allocations (runtime.MemStats.Mallocs
// delta) of one regeneration of each replication- and DES-heavy
// experiment: the NOW/SMP/MPP factorial tables, the NOW sweeps and the
// fault-survivability matrix. Each runs once at benchOptions() scale with
// Parallel: 1. Counts are deterministic for a fixed seed to within a few
// allocations, and -race adds at most 0.1%, so a pin sits 5% above the
// count it was taken from and an extra allocation per dispatched event
// breaks every one of them.
//
// To re-pin after a change that moves allocations on purpose, run
//
//	go test -run TestTrackedExperimentAllocations -v .
//
// and set each pin to floor(logged count × 1.05). Never raise a pin to
// absorb a regression.
var trackedAllocPins = []struct {
	id  string
	max uint64
}{
	{"table4", 217249},
	{"fig16", 217331},
	{"fig17", 8310},
	{"fig18", 44131},
	{"fig19", 28547},
	{"table5", 341725},
	{"table6", 609022},
	{"fault-survivability", 61751},
}

func TestTrackedExperimentAllocations(t *testing.T) {
	opt := benchOptions()
	opt.Parallel = 1
	for _, pin := range trackedAllocPins {
		t.Run(pin.id, func(t *testing.T) {
			e, ok := experiments.ByID(pin.id)
			if !ok {
				t.Fatalf("experiment %q not registered", pin.id)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := e.Run(io.Discard, opt)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			got := after.Mallocs - before.Mallocs
			t.Logf("%d allocs (pin %d)", got, pin.max)
			if got > pin.max {
				t.Errorf("exceeds the pin by %.1f%%", 100*(float64(got)/float64(pin.max)-1))
			}
		})
	}
}
