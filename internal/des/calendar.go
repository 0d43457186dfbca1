package des

// HeapCalendar is a binary min-heap future event list keyed on (time, seq).
// It is the default calendar: O(log n) push/pop.
type HeapCalendar struct {
	events []*Event
}

// NewHeapCalendar returns an empty heap calendar.
func NewHeapCalendar() *HeapCalendar { return &HeapCalendar{} }

// Len implements Calendar.
func (h *HeapCalendar) Len() int { return len(h.events) }

// Peek implements Calendar: the next event without removing it.
func (h *HeapCalendar) Peek() *Event {
	if len(h.events) == 0 {
		return nil
	}
	return h.events[0]
}

func (h *HeapCalendar) less(i, j int) bool {
	a, b := h.events[i], h.events[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (h *HeapCalendar) swap(i, j int) {
	h.events[i], h.events[j] = h.events[j], h.events[i]
	h.events[i].index = i
	h.events[j].index = j
}

// Push implements Calendar.
func (h *HeapCalendar) Push(e *Event) {
	e.index = len(h.events)
	h.events = append(h.events, e)
	h.up(e.index)
}

// Pop implements Calendar.
func (h *HeapCalendar) Pop() *Event {
	if len(h.events) == 0 {
		return nil
	}
	top := h.events[0]
	last := len(h.events) - 1
	h.swap(0, last)
	h.events[last] = nil
	h.events = h.events[:last]
	if last > 0 {
		h.down(0)
	}
	top.index = -1
	return top
}

func (h *HeapCalendar) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *HeapCalendar) down(i int) {
	n := len(h.events)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
