package qos

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// naiveTimeline is the original flat-list Timeline: every query re-scans
// and re-sums the reservation slice. It is kept verbatim as the
// executable specification the indexed usage-profile Timeline is
// differentially fuzzed against — O(n²) per query, but obviously
// correct.
type naiveTimeline struct {
	capacity ResourceVector
	res      []Reservation
	nextID   int
	cands    []int64
}

func newNaiveTimeline(capacity ResourceVector) *naiveTimeline {
	if !capacity.Valid() || capacity.IsZero() {
		panic(fmt.Sprintf("qos: invalid timeline capacity %v", capacity))
	}
	return &naiveTimeline{capacity: capacity, nextID: 1}
}

func (t *naiveTimeline) Capacity() ResourceVector { return t.capacity }

func (t *naiveTimeline) Len() int { return len(t.res) }

func (t *naiveTimeline) UsageAt(x int64) ResourceVector {
	var u ResourceVector
	for _, r := range t.res {
		if r.Start <= x && x < r.End {
			u = u.Add(r.Vec)
		}
	}
	return u
}

func (t *naiveTimeline) AvailableAt(x int64) ResourceVector {
	return t.capacity.Sub(t.UsageAt(x))
}

func (t *naiveTimeline) fits(vec ResourceVector, start, dur int64) bool {
	end := start + dur
	if !t.UsageAt(start).Add(vec).Fits(t.capacity) {
		return false
	}
	for _, r := range t.res {
		if r.Start > start && r.Start < end {
			if !t.UsageAt(r.Start).Add(vec).Fits(t.capacity) {
				return false
			}
		}
	}
	return true
}

func (t *naiveTimeline) EarliestFit(vec ResourceVector, now, dur, deadline int64) (start int64, ok bool) {
	if !vec.Fits(t.capacity) || dur <= 0 {
		return 0, false
	}
	cands := append(t.cands[:0], now)
	for _, r := range t.res {
		if r.End > now {
			cands = append(cands, r.End)
		}
	}
	t.cands = cands
	slices.Sort(cands)
	for _, s := range cands {
		if deadline != 0 && s+dur > deadline {
			return 0, false
		}
		if t.fits(vec, s, dur) {
			return s, true
		}
	}
	return 0, false
}

func (t *naiveTimeline) LatestFit(vec ResourceVector, now, dur, deadline int64) (start int64, ok bool) {
	if !vec.Fits(t.capacity) || dur <= 0 || deadline == 0 || deadline-dur < now {
		return 0, false
	}
	cands := append(t.cands[:0], deadline-dur)
	for _, r := range t.res {
		if c := r.Start - dur; c >= now && c+dur <= deadline {
			cands = append(cands, c)
		}
	}
	t.cands = cands
	slices.SortFunc(cands, func(a, b int64) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		}
		return 0
	})
	for _, s := range cands {
		if t.fits(vec, s, dur) {
			return s, true
		}
	}
	return 0, false
}

func (t *naiveTimeline) Reserve(jobID int, vec ResourceVector, start, dur int64) int {
	if !t.fits(vec, start, dur) {
		panic(fmt.Sprintf("qos: reservation %v @[%d,%d) does not fit", vec, start, start+dur))
	}
	id := t.nextID
	t.nextID++
	t.res = append(t.res, Reservation{ID: id, JobID: jobID, Vec: vec, Start: start, End: start + dur})
	return id
}

func (t *naiveTimeline) Release(id int) {
	for i, r := range t.res {
		if r.ID == id {
			t.res = append(t.res[:i], t.res[i+1:]...)
			return
		}
	}
}

func (t *naiveTimeline) SetCapacity(capacity ResourceVector, from int64) []Reservation {
	if !capacity.Valid() || capacity.IsZero() {
		panic(fmt.Sprintf("qos: invalid timeline capacity %v", capacity))
	}
	t.capacity = capacity
	var evicted []Reservation
	for {
		at, over := t.overcommittedAt(from)
		if !over {
			return evicted
		}
		v := -1
		for i, r := range t.res {
			if r.Start > at || r.End <= at {
				continue
			}
			if v == -1 || r.Start > t.res[v].Start ||
				(r.Start == t.res[v].Start && r.ID > t.res[v].ID) {
				v = i
			}
		}
		if v == -1 {
			return evicted
		}
		evicted = append(evicted, t.res[v])
		t.res = append(t.res[:v], t.res[v+1:]...)
	}
}

func (t *naiveTimeline) overcommittedAt(from int64) (int64, bool) {
	at, over := int64(0), false
	check := func(x int64) {
		if (!over || x < at) && !t.UsageAt(x).Fits(t.capacity) {
			at, over = x, true
		}
	}
	check(from)
	for _, r := range t.res {
		if r.Start > from && r.End > from {
			check(r.Start)
		}
	}
	return at, over
}

func (t *naiveTimeline) ShrinkVec(id int, vec ResourceVector) bool {
	for i := range t.res {
		if t.res[i].ID == id {
			if !vec.within(t.res[i].Vec) {
				return false
			}
			t.res[i].Vec = vec
			return true
		}
	}
	return false
}

func (t *naiveTimeline) Get(id int) (Reservation, bool) {
	for _, r := range t.res {
		if r.ID == id {
			return r, true
		}
	}
	return Reservation{}, false
}

func (t *naiveTimeline) Prune(now int64) {
	kept := t.res[:0]
	for _, r := range t.res {
		if r.End > now {
			kept = append(kept, r)
		}
	}
	t.res = kept
}

// Reservations sorts by (Start, ID) — IDs are issued monotonically and
// appended in order, so this matches the original's stable-by-Start copy
// while staying deterministic at any size.
func (t *naiveTimeline) Reservations() []Reservation {
	out := make([]Reservation, len(t.res))
	copy(out, t.res)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (t *naiveTimeline) Availability(from, to int64) []AvailabilityStep {
	if to <= from {
		return nil
	}
	points := map[int64]bool{from: true, to: true}
	for _, r := range t.res {
		if r.Start > from && r.Start < to {
			points[r.Start] = true
		}
		if r.End > from && r.End < to {
			points[r.End] = true
		}
	}
	cuts := make([]int64, 0, len(points))
	for p := range points {
		cuts = append(cuts, p)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var out []AvailabilityStep
	for i := 0; i+1 < len(cuts); i++ {
		out = append(out, AvailabilityStep{
			Start: cuts[i],
			End:   cuts[i+1],
			Free:  t.AvailableAt(cuts[i]),
		})
	}
	return out
}

func (t *naiveTimeline) Render(from, to int64, width int) string {
	if width < 10 {
		width = 10
	}
	if to <= from {
		return "(empty timeline window)\n"
	}
	span := to - from
	var b strings.Builder
	fmt.Fprintf(&b, "cycles %d .. %d  (one column = %.4g cycles)\n",
		from, to, float64(span)/float64(width))

	type dim struct {
		name string
		cap  int
		get  func(ResourceVector) int
	}
	dims := []dim{
		{"cores", t.capacity.Cores, func(v ResourceVector) int { return v.Cores }},
		{"ways", t.capacity.CacheWays, func(v ResourceVector) int { return v.CacheWays }},
	}
	if t.capacity.MemoryMB > 0 {
		dims = append(dims, dim{"memMB", t.capacity.MemoryMB,
			func(v ResourceVector) int { return v.MemoryMB }})
	}
	if t.capacity.BandwidthMBps > 0 {
		dims = append(dims, dim{"bwMBs", t.capacity.BandwidthMBps,
			func(v ResourceVector) int { return v.BandwidthMBps }})
	}
	for _, d := range dims {
		if d.cap == 0 {
			continue
		}
		row := make([]byte, width)
		for col := 0; col < width; col++ {
			t0 := from + span*int64(col)/int64(width)
			t1 := from + span*int64(col+1)/int64(width)
			peak := d.get(t.UsageAt(t0))
			for _, r := range t.res {
				if r.Start > t0 && r.Start < t1 {
					if u := d.get(t.UsageAt(r.Start)); u > peak {
						peak = u
					}
				}
			}
			frac := float64(peak) / float64(d.cap)
			switch {
			case peak == 0:
				row[col] = ' '
			case frac <= 0.25:
				row[col] = '.'
			case frac <= 0.5:
				row[col] = ':'
			case frac <= 0.75:
				row[col] = '+'
			case frac < 1:
				row[col] = '#'
			default:
				row[col] = '@'
			}
		}
		fmt.Fprintf(&b, "%-6s|%s|\n", d.name, string(row))
	}
	b.WriteString("legend: ' ' idle  . <=25%  : <=50%  + <=75%  # <100%  @ full\n")
	return b.String()
}

func (t *naiveTimeline) Horizon(from int64) int64 {
	h := from
	for _, r := range t.res {
		if r.End > h && r.End < foreverCycles/2 {
			h = r.End
		}
	}
	return h
}
