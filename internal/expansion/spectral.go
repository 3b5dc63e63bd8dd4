package expansion

import (
	"math"

	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// SpectralGap estimates 1 − λ₂ of the lazy random walk on the alive graph
// — a witness-free proxy for expansion: by Cheeger-type inequalities a
// constant vertex expander has a constant spectral gap, while a
// disconnected graph has gap 0. It complements the witness search of
// Estimate, which can only ever prove *upper* bounds on h_out.
//
// The estimate runs power iteration on the lazy normalized adjacency
// L = (I + D^{-1/2} A D^{-1/2})/2, deflating the top eigenvector
// (v₁ ∝ √deg), and returns 1 minus the Rayleigh quotient of the last
// iterate, clamped to [0, 1]. That iterate is orthogonal to v₁, so its
// quotient is at most λ₂ (up to rounding): the result is never below the
// true gap and can only overstate it. It is an estimate, not a
// certificate of expansion; more iterations tighten it from above.
// Isolated nodes get an identity row (eigenvalue 1: a walker there stays
// put), so a graph with an isolated node or any other disconnection
// reports a gap near 0.
func SpectralGap(g *graph.Graph, iters int, r *rng.RNG) float64 {
	hs := g.AliveHandles()
	n := len(hs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return 1 // trivially mixing
	}
	if iters <= 0 {
		iters = 50
	}

	idx := make(map[graph.Handle]int, n)
	for i, h := range hs {
		idx[h] = i
	}
	deg := make([]float64, n)
	for i, h := range hs {
		deg[i] = float64(g.DegreeLive(h))
	}
	// Top eigenvector of the normalized adjacency: v1_i = sqrt(deg_i).
	v1 := make([]float64, n)
	norm := 0.0
	for i := range v1 {
		v1[i] = math.Sqrt(deg[i])
		norm += v1[i] * v1[i]
	}
	if norm == 0 {
		return 0 // edgeless graph
	}
	norm = math.Sqrt(norm)
	for i := range v1 {
		v1[i] /= norm
	}

	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	y := make([]float64, n)

	lambda := 0.0
	for it := 0; it < iters; it++ {
		deflate(x, v1)
		if !normalize(x) {
			return 1 // x collapsed onto v1: no second component, gap maximal
		}
		// y = L x with L = (I + D^{-1/2} A D^{-1/2}) / 2.
		for i := range y {
			y[i] = 0
		}
		for i, h := range hs {
			if deg[i] == 0 {
				continue
			}
			xi := x[i] / math.Sqrt(deg[i])
			g.Neighbors(h, func(v graph.Handle) bool {
				j := idx[v]
				if deg[j] > 0 {
					y[j] += xi / math.Sqrt(deg[j])
				}
				return true
			})
		}
		for i := range y {
			if deg[i] == 0 {
				// A walker on an isolated node stays put: identity row,
				// eigenvalue 1, so isolation forces gap 0 as it must.
				y[i] = x[i]
				continue
			}
			y[i] = (x[i] + y[i]) / 2
		}
		// Rayleigh quotient (x is unit).
		lambda = dot(x, y)
		copy(x, y)
	}
	gap := 1 - lambda
	if gap < 0 {
		gap = 0
	}
	if gap > 1 {
		gap = 1
	}
	return gap
}

func deflate(x, v []float64) {
	c := dot(x, v)
	for i := range x {
		x[i] -= c * v[i]
	}
}

func normalize(x []float64) bool {
	n := math.Sqrt(dot(x, x))
	if n < 1e-300 {
		return false
	}
	for i := range x {
		x[i] /= n
	}
	return true
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
