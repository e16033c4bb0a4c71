package main

import (
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"syscall"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none. xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return sortedQuantile(xs, 0.5)
}

// sortedQuantile returns the q-quantile of a sorted, non-empty xs,
// interpolating linearly between closest ranks.
func sortedQuantile[T float64 | uint32](xs []T, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return float64(xs[lo]) + (float64(xs[hi])-float64(xs[lo]))*(pos-float64(lo))
}

// latencies holds per-op host latencies in nanoseconds, in fixed-size
// chunks: recording never copies, and memory grows with the op count
// alone, so it does not blur peak_rss_mb.
type latencies struct {
	chunks [][]uint32
	n      int
}

const latChunk = 1 << 16

func (l *latencies) add(ns uint32) {
	if l.n%latChunk == 0 {
		l.chunks = append(l.chunks, make([]uint32, 0, latChunk))
	}
	c := &l.chunks[len(l.chunks)-1]
	*c = append(*c, ns)
	l.n++
}

// sorted returns latencies lo..hi-1, sorted.
func (l *latencies) sorted(lo, hi int) []uint32 {
	out := make([]uint32, 0, hi-lo)
	for i := lo; i < hi; {
		c := l.chunks[i/latChunk]
		j := min(hi-i, len(c)-i%latChunk)
		out = append(out, c[i%latChunk:][:j]...)
		i += j
	}
	slices.Sort(out)
	return out
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digest accumulates the simulated facts of each op: instructions,
// cycles, per-class cycles, recovery census and outputs. Only simulated
// values go in, so a digest is a pure function of the seed and the
// modelled design, whatever the engine tier or host.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	for i := range d.buf {
		d.buf[i] = byte(v >> (8 * i))
	}
	d.h.Write(d.buf[:])
}

func (d *digest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
