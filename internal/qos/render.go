package qos

import (
	"fmt"
	"strings"
)

// Render draws the timeline's committed capacity over [from, to) as an
// ASCII utilization chart, one row per resource dimension. Each column
// is a time bucket; the glyph encodes that bucket's peak utilization:
// ' ' idle, '.' ≤25%, ':' ≤50%, '+' ≤75%, '#' <100%, '@' full. The
// qosctl tool prints this under each node's schedule.
func (t *Timeline) Render(from, to int64, width int) string {
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

	// One availability walk covers the window; each bucket's peak usage
	// is the max over the steps it intersects (usage is piecewise
	// constant, and ends inside a bucket can only lower it).
	steps := t.Availability(from, to)

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
		idx := 0
		for col := 0; col < width; col++ {
			t0 := from + span*int64(col)/int64(width)
			t1 := from + span*int64(col+1)/int64(width)
			if t1 <= t0 {
				// More columns than cycles: a degenerate bucket still
				// samples the instant t0.
				t1 = t0 + 1
			}
			for idx < len(steps) && steps[idx].End <= t0 {
				idx++
			}
			peak := 0
			for j := idx; j < len(steps) && steps[j].Start < t1; j++ {
				if u := d.cap - d.get(steps[j].Free); u > peak {
					peak = u
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

// Horizon returns the end of the last reservation (or from when none),
// a convenient upper bound for Render windows. Open-ended opportunistic
// holds parked at foreverCycles are ignored. It walks every
// reservation, O(n).
func (t *Timeline) Horizon(from int64) int64 {
	return resMaxFiniteEnd(t.idx.root, from)
}
