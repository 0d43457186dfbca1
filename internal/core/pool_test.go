package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/resources"
)

// TestDaemonForwardCycleAllocFree pins the fault-free sample path: once
// warm, one sample's trip — pipe, daemon drain, collection CPU, network,
// Main.Receive (plus relay merges under tree forwarding), and back to the
// model's message pool — allocates nothing, with or without the metrics
// registry and the provenance engine observing it.
func TestDaemonForwardCycleAllocFree(t *testing.T) {
	direct := DefaultConfig()
	direct.Nodes = 2

	tree := DefaultConfig()
	tree.Arch = MPP
	tree.Nodes = 8
	tree.Forwarding = forward.Tree

	for _, tc := range []struct {
		name     string
		cfg      Config
		observed bool
	}{
		{"direct", direct, false},
		{"tree", tree, false},
		{"direct-observed", direct, true},
		{"tree-observed", tree, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Policy = forward.CF
			m, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := m.Sim.RunAll
			if tc.observed {
				if _, err := m.EnableObservability(ObsOptions{Metrics: true, Provenance: true}); err != nil {
					t.Fatal(err)
				}
				// The metrics sampler reschedules itself forever, so
				// step a bounded window per sample instead of RunAll.
				run = func() { m.Sim.Run(m.Sim.Now() + 5e4) }
			}
			// Only the leaf daemon runs: no application processes or
			// background streams are started.
			d := m.Daemons[len(m.Daemons)-1]
			d.Start()
			pipe := d.Pipes[0]
			seq := 0
			cycle := func() {
				pipe.Put(resources.Sample{GenTime: m.Sim.Now(), Seq: seq}, nil)
				seq++
				run()
			}
			cycle()
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("forward cycle allocates %v per sample, want 0", allocs)
			}
			if got, want := m.Main.SamplesReceived, 202; got != want {
				t.Fatalf("main received %d samples, want %d", got, want)
			}
			if m.msgs.Recycled() != m.Main.MessagesReceived {
				t.Fatalf("recycled %d messages, main received %d", m.msgs.Recycled(), m.Main.MessagesReceived)
			}
			if eng := m.Provenance(); tc.observed && eng.Delivered() != 202 {
				t.Fatalf("provenance decomposed %d samples, want 202", eng.Delivered())
			}
		})
	}
}

// TestMessagePoolOwnership checks the pool's one owner rule on whole
// runs: on the direct delivery path every message main receives goes
// back to the pool, while a model wired through faults.Link (duplicates,
// ack loss and retransmission over a tree) never returns one. Either way
// the Result is byte-identical to the same run with pooling switched off.
func TestMessagePoolOwnership(t *testing.T) {
	plain := DefaultConfig()
	plain.Arch = MPP
	plain.Nodes = 16
	plain.Forwarding = forward.Tree
	plain.Policy = forward.BF
	plain.BatchSize = 4
	plain.Duration = 2e6

	linked := plain
	linked.Faults = &faults.Plan{
		Seed: 9, Dup: 0.2, AckLoss: 0.2, Loss: 0.05,
		Resilience: faults.Resilience{Retransmit: true, RTO: 5000},
	}

	run := func(cfg Config, pooled bool) (*Model, []byte) {
		t.Helper()
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !pooled {
			for _, d := range m.Daemons {
				d.Messages = nil
			}
		}
		out, err := json.Marshal(m.Run())
		if err != nil {
			t.Fatal(err)
		}
		return m, out
	}

	for _, tc := range []struct {
		name    string
		cfg     Config
		recycle bool
	}{{"direct", plain, true}, {"link", linked, false}} {
		t.Run(tc.name, func(t *testing.T) {
			m, pooled := run(tc.cfg, true)
			_, unpooled := run(tc.cfg, false)
			if !bytes.Equal(pooled, unpooled) {
				t.Fatalf("pooled run differs from unpooled:\n%s\n%s", pooled, unpooled)
			}
			switch got := m.msgs.Recycled(); {
			case tc.recycle && got == 0:
				t.Fatal("direct path recycled no messages")
			case !tc.recycle && got != 0:
				t.Fatalf("link path recycled %d messages, want 0", got)
			}
			if tc.cfg.Faults != nil {
				var dups, retx int
				for _, l := range m.Inj.Links {
					dups += l.DupInjected
					retx += l.Retransmits
				}
				if dups == 0 || retx == 0 {
					t.Fatalf("fault plan inert: %d duplicates, %d retransmits", dups, retx)
				}
			}
		})
	}
}
