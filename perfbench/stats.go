package main

import (
	"math"
	"sort"
	"time"
)

// rng is a splitmix64 stream. Every generated request draws from its own
// stream, seeded from (workload seed, request index), so request i is the
// same on every run of a seed no matter how many requests a run reaches
// or which connection sends it.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// round3 keeps three decimals, so generated numbers print short and
// round-trip through JSON exactly.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s by inverse CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailPercentiles is the ladder latency_tail_ms climbs: the highest rung
// with at least ten samples beyond it is reported.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tail returns the highest ladder percentile with at least ten samples
// above it, its value and the number of samples beyond it. With fewer
// than twenty samples it falls back to the maximum.
func tail(xs []float64) (pct, value float64, beyond int) {
	n := len(xs)
	for _, p := range tailPercentiles {
		b := int(math.Floor(float64(n) * (100 - p) / 100))
		if b >= 10 {
			return p, quantile(xs, p/100), b
		}
	}
	return 100, quantile(xs, 1), 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
