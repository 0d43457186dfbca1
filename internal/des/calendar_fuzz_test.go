package des

import (
	"testing"

	"rocc/internal/rng"
)

// FuzzCalendarDifferential drives one Push/Pop/Cancel op sequence, decoded
// from the fuzz input, through HeapCalendar and BucketCalendar in
// lockstep, and asserts that at every step both agree on Len() and pop
// the same (time, seq, canceled) event. Events are
// distinct structs per calendar (each implementation owns its queued
// events' index/bslot fields) but share time, seq, and cancellation fate.
//
// Op byte decoding (two bytes consumed per op):
//   - b%4 == 0..1 → Push at a time derived from the second byte (equal
//     times are common on purpose, to stress the seq tie-break; time can
//     also fall below earlier pushes, stressing the bucket scan pull-back)
//   - b%4 == 2    → Pop from both, compare
//   - b%4 == 3    → Cancel a pending event picked by the second byte
//     (canceled events still flow through the calendars; the simulator,
//     not the calendar, discards them)
func FuzzCalendarDifferential(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 2, 0, 3, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 1, 4, 1, 8, 1, 2, 0, 2, 0, 2, 0, 2, 0})
	seed := make([]byte, 0, 120)
	r := rng.New(4242)
	for i := 0; i < 60; i++ {
		seed = append(seed, byte(r.Intn(256)), byte(r.Intn(256)))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		cals := []Calendar{NewHeapCalendar(), NewBucketCalendar()}
		// pending[k] holds the queued events of calendar k, same order
		// across calendars, so "cancel the j-th pending event" is the
		// same logical event everywhere.
		pending := make([][]*Event, len(cals))
		var seq uint64
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 4 {
			case 0, 1:
				tm := Time(arg%32) * 7.5 // coarse grid → frequent time collisions
				for k, c := range cals {
					e := &Event{time: tm, seq: seq, index: -1}
					c.Push(e)
					pending[k] = append(pending[k], e)
				}
				seq++
			case 2:
				var got *Event
				for k, c := range cals {
					e := c.Pop()
					if k == 0 {
						got = e
						continue
					}
					switch {
					case (e == nil) != (got == nil):
						t.Fatalf("op %d: %T popped %v, heap popped %v", i, c, e, got)
					case e != nil && (e.time != got.time || e.seq != got.seq || e.canceled != got.canceled):
						t.Fatalf("op %d: %T popped (t=%v seq=%d canceled=%v), heap popped (t=%v seq=%d canceled=%v)",
							i, c, e.time, e.seq, e.canceled, got.time, got.seq, got.canceled)
					}
				}
				if got != nil {
					for k := range pending {
						for j, e := range pending[k] {
							if e.seq == got.seq {
								pending[k] = append(pending[k][:j], pending[k][j+1:]...)
								break
							}
						}
					}
				}
			case 3:
				if n := len(pending[0]); n > 0 {
					j := int(arg) % n
					for k := range pending {
						pending[k][j].Cancel()
					}
				}
			}
			for k := 1; k < len(cals); k++ {
				if cals[k].Len() != cals[0].Len() {
					t.Fatalf("op %d: %T Len %d != heap Len %d", i, cals[k], cals[k].Len(), cals[0].Len())
				}
			}
		}
		// Drain: the remaining pop order must agree too.
		for {
			e0 := cals[0].Pop()
			for k := 1; k < len(cals); k++ {
				e := cals[k].Pop()
				if (e == nil) != (e0 == nil) {
					t.Fatalf("drain: %T popped %v, heap popped %v", cals[k], e, e0)
				}
				if e != nil && (e.time != e0.time || e.seq != e0.seq) {
					t.Fatalf("drain: %T popped (t=%v seq=%d), heap popped (t=%v seq=%d)",
						cals[k], e.time, e.seq, e0.time, e0.seq)
				}
			}
			if e0 == nil {
				return
			}
		}
	})
}
