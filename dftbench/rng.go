package main

// rng is a splitmix64 generator. The benchmark derives every input —
// pattern sets, fault samples, query and job sequences — from it, so a
// seed fixes the inputs on any Go version.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed) ^ stream*0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// bits returns n random booleans.
func (r *rng) bits(n int) []bool {
	out := make([]bool, n)
	var w uint64
	for i := range out {
		if i%64 == 0 {
			w = r.next()
		}
		out[i] = w&1 == 1
		w >>= 1
	}
	return out
}

// patterns returns n random patterns of the given width.
func (r *rng) patterns(n, width int) [][]bool {
	out := make([][]bool, n)
	for i := range out {
		out[i] = r.bits(width)
	}
	return out
}

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
