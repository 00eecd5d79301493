package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// top returns the earliest horizon in the calendar: the reference's
// view of the buckets' order.
func (c *calendar) top() (horizon int64, ok bool) {
	if len(c.order) == 0 {
		return 0, false
	}
	return c.hz[c.order[len(c.order)-1]], true
}

// TestCalendarAgainstReference drives the fleet calendar through random
// insert / remove (a wake) / popDue / top sequences against a map of
// node → horizon: popDue must yield exactly the nodes at or before now,
// top must be the earliest horizon, and contains must agree on every
// node after every operation. Horizons are drawn from a narrow band
// ahead of a monotone clock, so buckets are shared, emptied by wakes,
// closed and reopened.
func TestCalendarAgainstReference(t *testing.T) {
	const n = 64
	c := newCalendar(n)
	ref := map[int]int64{}
	rng := rand.New(rand.NewSource(7))
	var now int64
	var got, want []int32
	for op := 0; op < 20_000; op++ {
		id := rng.Intn(n)
		switch rng.Intn(5) {
		case 0, 1: // file a node that is not in the calendar
			if _, in := ref[id]; !in {
				h := now + int64(rng.Intn(24))
				c.insert(id, h)
				ref[id] = h
			}
		case 2: // wake a sleeper
			if _, in := ref[id]; in {
				c.remove(id)
				delete(ref, id)
			}
		case 3: // advance the clock and pop what is due
			now += int64(rng.Intn(4))
			got = c.popDue(now, got[:0])
			want = want[:0]
			for id, h := range ref {
				if h <= now {
					want = append(want, int32(id))
					delete(ref, id)
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: popDue(%d) = %v, want %v", op, now, got, want)
			}
		case 4:
			got = c.popDue(now-1, got[:0]) // nothing is filed before the clock
			if len(got) != 0 {
				t.Fatalf("op %d: popDue(%d) = %v below every horizon", op, now-1, got)
			}
		}
		h, ok := c.top()
		wantH, wantOK := int64(0), false
		for _, rh := range ref {
			if !wantOK || rh < wantH {
				wantH, wantOK = rh, true
			}
		}
		if ok != wantOK || h != wantH {
			t.Fatalf("op %d: top = (%d, %v), want (%d, %v)", op, h, ok, wantH, wantOK)
		}
		for id := 0; id < n; id++ {
			if _, in := ref[id]; c.contains(id) != in {
				t.Fatalf("op %d: contains(%d) = %v, reference %v", op, id, !in, in)
			}
		}
		if len(c.order)+len(c.free) != n {
			t.Fatalf("op %d: %d open and %d free buckets, want %d in all", op, len(c.order), len(c.free), n)
		}
	}

	// Once built, the calendar's storage is all it ever uses: filing into
	// an open horizon, opening a new one, a wake and a whole-bucket
	// popDue allocate nothing.
	c = newCalendar(n)
	const span = 8
	for id := 0; id < n; id++ {
		c.insert(id, int64(1+id%span))
	}
	due := make([]int32, 0, n)
	now = 0
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		due = c.popDue(now, due[:0])
		for i, id := range due {
			// All but the last re-file into open horizons; the last opens
			// the one just past them.
			h := now + 1 + int64(i%(span-1))
			if i == len(due)-1 {
				h = now + span
			}
			c.insert(int(id), h)
		}
		if len(due) > 0 {
			c.remove(int(due[0]))
			c.insert(int(due[0]), now+span)
		}
	})
	if allocs != 0 {
		t.Errorf("a warmed calendar allocated %v times per cycle, want 0", allocs)
	}
}
