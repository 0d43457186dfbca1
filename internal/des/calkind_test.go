package des

import (
	"strings"
	"testing"
)

// TestParseCalendarKind pins the -calendar flag contract: every accepted
// spelling resolves to a kind whose String parses back to the same kind,
// and a rejected value gets an error that lists only the live kinds.
func TestParseCalendarKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CalendarKind
		name string
	}{
		{"", CalendarAuto, "auto"},
		{"auto", CalendarAuto, "auto"},
		{"heap", CalendarHeap, "heap"},
		{"bucket", CalendarBucket, "bucket"},
		{"cq", CalendarBucket, "bucket"},
	} {
		k, err := ParseCalendarKind(tc.in)
		if err != nil || k != tc.want {
			t.Errorf("ParseCalendarKind(%q) = %v, %v; want %v", tc.in, k, err, tc.want)
			continue
		}
		if k.String() != tc.name {
			t.Errorf("%q: String() = %q, want %q", tc.in, k.String(), tc.name)
		}
		if back, err := ParseCalendarKind(k.String()); err != nil || back != k {
			t.Errorf("%q: String %q parses back to %v, %v", tc.in, k.String(), back, err)
		}
	}

	for _, in := range []string{"list", "junk", "Heap", " heap"} {
		_, err := ParseCalendarKind(in)
		if err == nil {
			t.Errorf("ParseCalendarKind(%q) accepted", in)
			continue
		}
		if !strings.HasSuffix(err.Error(), "(auto, heap, bucket)") {
			t.Errorf("ParseCalendarKind(%q) error %q does not list exactly the live kinds", in, err)
		}
	}

	if got := (CalendarBucket + 1).String(); got != "CalendarKind(3)" {
		t.Errorf("out-of-range kind String() = %q", got)
	}
}
