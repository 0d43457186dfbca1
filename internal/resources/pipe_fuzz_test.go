package resources

import (
	"testing"

	"rocc/internal/des"
)

// FuzzPipeInvariants drives a Pipe through a random operation sequence
// (puts under every overflow policy, gets, drains, capacity squeezes) and
// checks the structural invariants that the fault layer depends on:
//
//   - the buffer never exceeds the declared capacity;
//   - blocked writers resume in FIFO order;
//   - sample conservation: every offered sample is accounted for exactly
//     once — accepted (puts) = removed by Get/Drain + still buffered +
//     evicted by DropOldest, and offered = accepted + still blocked +
//     discarded on arrival.
func FuzzPipeInvariants(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 3, 4, 0, 1}, uint8(1), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 2, 2, 2}, uint8(2), uint8(1))
	f.Add([]byte{0, 4, 0, 0, 19, 2, 2, 0, 24, 3}, uint8(3), uint8(2))
	f.Add([]byte{0, 0, 0, 9, 2, 0, 0, 14, 2, 2, 2, 2}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, ops []byte, cap8, pol uint8) {
		capacity := int(cap8)%8 + 1
		p := NewPipe(capacity)
		p.SetPolicy(OverflowPolicy(int(pol) % 3))
		now := des.Time(0)
		p.SetClock(func() des.Time { return now })

		var blockedOrder []int // ids of puts that blocked, in block order
		var admitted []int     // ids admitted from the blocked queue
		offered, gets := 0, 0
		for _, op := range ops {
			now++
			switch op % 5 {
			case 0, 1: // put
				id := offered
				offered++
				before := p.Blocked()
				ok := p.Put(Sample{Proc: id}, func() { admitted = append(admitted, id) })
				if !ok {
					blockedOrder = append(blockedOrder, id)
					if p.Blocked() != before+1 {
						t.Fatalf("blocked count %d, want %d", p.Blocked(), before+1)
					}
				}
			case 2: // get
				if _, ok := p.Get(); ok {
					gets++
				}
			case 3: // multi-sample drain: blocked writers enter as space frees
				n := int(op/5) % (capacity + 2)
				if n == 0 || n > p.Len()+p.Blocked() {
					n = p.Len()
				}
				for ; n > 0; n-- {
					if _, ok := p.Get(); !ok {
						break
					}
					gets++
				}
			case 4: // capacity squeeze / release
				p.SetCapacityLimit(int(op/5) % (capacity + 2))
			}
			if p.Len() > capacity {
				t.Fatalf("len %d exceeds capacity %d", p.Len(), capacity)
			}
			if p.Len() < 0 || p.Blocked() < 0 {
				t.Fatal("negative occupancy")
			}
		}

		// Blocked writers resume FIFO: the admitted ids are exactly the
		// first len(admitted) blocked ids, in order.
		if len(admitted) > len(blockedOrder) {
			t.Fatalf("admitted %d > ever blocked %d", len(admitted), len(blockedOrder))
		}
		for i, id := range admitted {
			if blockedOrder[i] != id {
				t.Fatalf("blocked writers resumed out of FIFO order: %v vs %v", admitted, blockedOrder)
			}
		}

		// Conservation within the pipe: accepted == removed + buffered +
		// evicted-by-DropOldest.
		if p.Puts() != gets+p.Len()+p.DroppedOldest() {
			t.Fatalf("pipe conservation: puts %d != gets %d + len %d + evicted %d",
				p.Puts(), gets, p.Len(), p.DroppedOldest())
		}
		// Conservation at the boundary: every offered sample was accepted,
		// is still blocked, or was discarded on arrival.
		if offered != p.Puts()+p.Blocked()+p.DroppedNewest() {
			t.Fatalf("offer conservation: offered %d != puts %d + blocked %d + droppedNew %d",
				offered, p.Puts(), p.Blocked(), p.DroppedNewest())
		}
		if p.Dropped() != p.DroppedNewest()+p.DroppedOldest() {
			t.Fatal("dropped split does not sum")
		}
		// Wait accounting is monotone and finite.
		if w := p.BlockedWaitTotal(); w < 0 {
			t.Fatalf("negative blocked wait %v", w)
		}
	})
}
