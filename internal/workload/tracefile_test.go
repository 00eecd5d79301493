package workload

import (
	"bytes"
	"testing"
	"testing/quick"

	"cmpqos/internal/cache"
)

func TestTraceRoundTrip(t *testing.T) {
	p := MustByName("bzip2")
	var buf bytes.Buffer
	if err := WriteTrace(&buf, p.NewStream(5, 0), 10_000); err != nil {
		t.Fatal(err)
	}
	addrs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 10_000 {
		t.Fatalf("read %d addresses, want 10000", len(addrs))
	}
	// The decoded stream must match a fresh identical generator.
	ref := p.NewStream(5, 0)
	for i, a := range addrs {
		if want := ref.Next(); a != want {
			t.Fatalf("address %d = %#x, want %#x", i, a, want)
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	// Property: any address sequence survives the zigzag-delta encoding.
	f := func(raw []uint64) bool {
		if len(raw) == 0 {
			return true
		}
		addrs := make([]cache.Addr, len(raw))
		for i, r := range raw {
			addrs[i] = cache.Addr(r)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, NewReplay(addrs), len(addrs)); err != nil {
			return false
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(back) != len(addrs) {
			return false
		}
		for i := range back {
			if back[i] != addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTraceErrors(t *testing.T) {
	if err := WriteTrace(&bytes.Buffer{}, NewReplay([]cache.Addr{1}), 0); err == nil {
		t.Error("zero-length write accepted")
	}
	if _, err := ReadTrace(bytes.NewReader([]byte("JUNK----"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, MustByName("gobmk").NewStream(1, 0), 1000); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
	// A corrupt header claiming an absurd count.
	bad := append([]byte{}, traceMagic[:]...)
	bad = append(bad, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Error("absurd count accepted")
	}
}

func TestReplayLoops(t *testing.T) {
	r := NewReplay([]cache.Addr{10, 20, 30})
	if len(r.addrs) != 3 {
		t.Fatal("length wrong")
	}
	seq := []cache.Addr{10, 20, 30, 10, 20}
	for i, want := range seq {
		if got := r.Next(); got != want {
			t.Fatalf("access %d = %v, want %v", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("empty replay did not panic")
		}
	}()
	NewReplay(nil)
}

func TestReplayThroughCache(t *testing.T) {
	// A recorded trace replayed through the cache gives identical miss
	// behaviour to the live generator — capture/replay is faithful.
	p := MustByName("hmmer")
	cfg := cache.Config{SizeBytes: 256 << 10, Ways: 8, BlockSize: 64, Owners: 1, HitCycles: 10}
	var buf bytes.Buffer
	const n = 60_000
	if err := WriteTrace(&buf, p.NewStream(9, 0), n); err != nil {
		t.Fatal(err)
	}
	addrs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	live := cache.NewPartitioned(cfg)
	live.SetTarget(0, 4)
	live.SetClass(0, cache.ClassReserved)
	st := p.NewStream(9, 0)
	for i := 0; i < n; i++ {
		live.Access(0, st.Next())
	}
	replayed := cache.NewPartitioned(cfg)
	replayed.SetTarget(0, 4)
	replayed.SetClass(0, cache.ClassReserved)
	rp := NewReplay(addrs)
	for i := 0; i < n; i++ {
		replayed.Access(0, rp.Next())
	}
	_, liveMiss := live.Stats(0)
	_, replayMiss := replayed.Stats(0)
	if liveMiss != replayMiss {
		t.Errorf("replayed misses %d != live misses %d", replayMiss, liveMiss)
	}
}
