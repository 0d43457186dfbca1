package obs

import (
	"math"
	"sync"
	"testing"
)

// The live telemetry plane scrapes a run's metrics from an HTTP handler
// while the simulation goroutine is still mutating them. This test is
// the -race referee for that contract: one goroutine hammers counters,
// gauges, the latency histogram, and a series exactly the way a running
// model does, while readers concurrently take the snapshot-style reads
// the exporter uses (Value, Snapshot, Quantile, Last). It proves nothing
// about values — only that no access is an unsynchronized data race.
func TestConcurrentSnapshotWhileMutating(t *testing.T) {
	m := NewMetrics()
	ser := &Series{Name: "pipe_depth"}
	m.series = append(m.series, ser)
	var g Gauge

	const iters = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the "simulation" writer
		defer wg.Done()
		for i := 0; i < iters; i++ {
			m.Events.Add(1)
			m.Generated.Add(2)
			m.Latency.Observe(float64(100 + i%1000))
			g.Set(float64(i))
			ser.append(float64(i), float64(i%7))
			if i%1024 == 0 {
				m.Reset() // warmup removal can overlap a scrape too
			}
		}
	}()

	for r := 0; r < 2; r++ { // concurrent scrapers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				for _, c := range m.Counters() {
					_ = c.Value()
				}
				snap := m.Latency.Snapshot()
				if snap.Total > 0 && (math.IsNaN(snap.Sum) || snap.Max < snap.Min) {
					t.Error("inconsistent histogram snapshot")
					return
				}
				_ = m.Latency.Quantile(0.99)
				_ = g.Value()
				if _, _, ok := ser.Last(); ok {
					_ = ser.Len()
				}
			}
		}()
	}
	wg.Wait()

	if m.Events.Value() == 0 {
		t.Fatal("writer made no progress")
	}
}
