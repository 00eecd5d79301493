package splitmix

import "testing"

// TestStreamPinned pins the generator to the published SplitMix64
// reference stream for seed 0, and Mix to the state it finalizes: fault
// plans, node seeds and locality homes feed golden outputs, so a changed
// bit here moves them all.
func TestStreamPinned(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var r Rand
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
	if got := Mix(0); got != want[0] {
		t.Errorf("Mix(0) = %#x, want %#x", got, want[0])
	}
	r = New(42)
	if got, want := r.Uint64(), Mix(42); got != want {
		t.Errorf("New(42) first draw %#x, Mix(42) %#x", got, want)
	}
}
