package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"cmpqos/internal/cache"
)

// Trace files let users capture a synthetic address stream — or bring
// their own, recorded from real hardware — and replay it through the
// cache models. The format is deliberately small and stable:
//
//	magic "CQT1" (4 bytes)
//	count (uvarint)
//	count × zigzag-uvarint deltas from the previous address (first
//	delta is from zero)
//
// Delta encoding keeps region-local synthetic traces to ~2 bytes per
// access.

// traceMagic identifies trace files (version 1).
var traceMagic = [4]byte{'C', 'Q', 'T', '1'}

// WriteTrace records n addresses from the stream into w.
func WriteTrace(w io.Writer, st cache.AddrStream, n int) error {
	if n <= 0 {
		return fmt.Errorf("workload: trace length %d must be positive", n)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(buf[:], uint64(n))
	if _, err := bw.Write(buf[:k]); err != nil {
		return err
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		a := uint64(st.Next())
		delta := int64(a - prev) // two's-complement wraparound is fine
		prev = a
		k := binary.PutUvarint(buf[:], zigzag(delta))
		if _, err := bw.Write(buf[:k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace loads a trace file fully into memory.
func ReadTrace(r io.Reader) ([]cache.Addr, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("workload: reading trace magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("workload: not a CQT1 trace file")
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace count: %w", err)
	}
	const maxTrace = 1 << 28 // 256M accesses ≈ 2 GB decoded; sanity bound
	if count == 0 || count > maxTrace {
		return nil, fmt.Errorf("workload: unreasonable trace length %d", count)
	}
	out := make([]cache.Addr, 0, count)
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		zz, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("workload: truncated trace at access %d: %w", i, err)
		}
		prev += uint64(unzigzag(zz))
		out = append(out, cache.Addr(prev))
	}
	return out, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Replay is an AddrStream over a recorded trace; it loops at the end so
// probes of any length work.
type Replay struct {
	addrs []cache.Addr
	pos   int
}

// NewReplay wraps a loaded trace. It panics on an empty trace (a caller
// bug; ReadTrace never returns one).
func NewReplay(addrs []cache.Addr) *Replay {
	if len(addrs) == 0 {
		panic("workload: empty trace")
	}
	return &Replay{addrs: addrs}
}

// Next returns the next recorded address, looping at the end.
func (r *Replay) Next() cache.Addr {
	a := r.addrs[r.pos]
	r.pos++
	if r.pos == len(r.addrs) {
		r.pos = 0
	}
	return a
}

var _ cache.AddrStream = (*Replay)(nil)
