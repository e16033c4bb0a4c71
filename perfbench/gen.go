package main

// rng is the benchmark's input generator (splitmix64). Every input a
// workload hands the simulator is drawn from one of these, derived from
// the --seed argument and a per-purpose stream label, so one seed always
// yields the same matrices, orders, frames, files and crash points, and
// two purposes never share draws.
type rng struct{ s uint64 }

// Stream labels: one per kind of generated input.
const (
	streamMatrix uint64 = iota + 1
	streamRowOrder
	streamClassOrder
	streamArgs
	streamFlows
	streamFiles
	streamFSOps
	streamCrash
)

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0,n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.shuffle(p)
	return p
}

func (r *rng) shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

func (r *rng) fill(b []byte) {
	for i := range b {
		b[i] = byte(r.next())
	}
}
