package resources

import (
	"math/rand"
	"testing"

	"rocc/internal/des"
)

// TestFIFOMatchesSliceReference drives a FIFO and a plain slice queue
// with the same random interleaving of pushes, pops and clears, and
// demands identical contents after every operation. Bursty phases make
// the ring grow while its head is wrapped past the end of the buffer.
func TestFIFOMatchesSliceReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		pushBias := 0.5
		if (step/500)%2 == 0 {
			pushBias = 0.65 // grow phase
		}
		switch x := r.Float64(); {
		case x < 0.002:
			q.Clear()
			ref = ref[:0]
		case x < pushBias:
			q.Push(next)
			ref = append(ref, next)
			next++
		case len(ref) > 0:
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		if len(ref) > 0 {
			if got := *q.At(0); got != ref[0] {
				t.Fatalf("step %d: head %d, want %d", step, got, ref[0])
			}
			if got := *q.At(len(ref) - 1); got != ref[len(ref)-1] {
				t.Fatalf("step %d: tail %d, want %d", step, got, ref[len(ref)-1])
			}
		}
	}
	for i, want := range ref {
		if got := *q.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestFIFOGrowWhileWrapped fills a ring, pops part of it so the head
// moves, pushes until the tail wraps and the buffer doubles, and checks
// order survives the unwrap.
func TestFIFOGrowWhileWrapped(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	for i := 4; i < 11; i++ { // wraps at 6, grows at 7
		q.Push(i)
	}
	if len(q.buf) != 16 {
		t.Fatalf("buffer %d, want 16 after two doublings", len(q.buf))
	}
	for want := 2; want < 11; want++ {
		if got := q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestFIFOZeroesReleasedSlots checks that popped and cleared slots hold
// no pointer, so the ring never keeps a dead element reachable.
func TestFIFOZeroesReleasedSlots(t *testing.T) {
	var q FIFO[*int]
	for i := 0; i < 6; i++ {
		v := i
		q.Push(&v)
	}
	q.Pop()
	q.Pop()
	live := 0
	for _, p := range q.buf {
		if p != nil {
			live++
		}
	}
	if live != q.Len() {
		t.Fatalf("%d non-nil slots, want %d", live, q.Len())
	}
	q.Clear()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still set after Clear", i)
		}
	}
	if q.Len() != 0 {
		t.Fatal("Clear left elements")
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty FIFO did not panic")
		}
	}()
	var q FIFO[int]
	q.Pop()
}

// TestPipePutGetAllocFree pins the pipe's steady state: once its ring
// has grown to the working depth, a Put/Get cycle — including a blocked
// writer admitted by the Get — allocates nothing.
func TestPipePutGetAllocFree(t *testing.T) {
	p := NewPipe(4)
	now := des.Time(0)
	p.SetClock(func() des.Time { return now })
	accepted := func() {}
	cycle := func() {
		now++
		for i := 0; i < 5; i++ { // the fifth write blocks
			p.Put(Sample{GenTime: now, Seq: i}, accepted)
		}
		for p.Len() > 0 {
			p.Get()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("pipe Put/Get cycle allocates %v per run, want 0", allocs)
	}
}

// TestCPUSubmitCompleteAllocFree pins the CPU's steady state: a burst of
// requests, some timesliced across several quanta, runs to completion
// without allocating once the ready queue and request free list are warm.
func TestCPUSubmitCompleteAllocFree(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, 2, 100)
	done := func() {}
	cycle := func() {
		for i := 0; i < 8; i++ {
			cpu.Submit("app", float64(50+60*i), done)
		}
		sim.RunAll()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("CPU Submit→complete cycle allocates %v per run, want 0", allocs)
	}
}
