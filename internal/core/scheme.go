package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/fec"
)

// Scheme assigns a perturbation bias to each frequency equivalence class.
// Implementations must return one bias per class, respecting |β_i| <=
// p.MaxBias(t_i); classes arrive in ascending support order as produced by
// fec.Partition.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Biases computes the per-class biases.
	Biases(classes []fec.Class, p Params) []int
	// SharedDraws reports whether all members of a FEC share one random
	// draw (the optimized schemes) or each itemset is perturbed
	// independently (the basic scheme).
	SharedDraws() bool
}

// Basic is the basic Butterfly approach of §V-C: zero bias everywhere
// (minimum precision-privacy ratio) and an independent draw per itemset.
type Basic struct{}

// Name implements Scheme.
func (Basic) Name() string { return "basic" }

// SharedDraws implements Scheme: the basic scheme perturbs each itemset
// independently.
func (Basic) SharedDraws() bool { return false }

// Biases implements Scheme: all zeros.
func (Basic) Biases(classes []fec.Class, _ Params) []int {
	return make([]int, len(classes))
}

// RatioPreserving is the bottom-up bias setting of Algorithm 2 (§VI-B):
// the smallest class takes its maximum adjustable bias and every other
// class scales it in proportion to its support, which maximizes the
// Markov-bound proxy of every pairwise (k,1/k) ratio probability. Lemma 3
// guarantees the scaled biases stay within their own maximum adjustable
// bias; rounding is clamped defensively anyway.
type RatioPreserving struct{}

// Name implements Scheme.
func (RatioPreserving) Name() string { return "ratio-preserving" }

// SharedDraws implements Scheme.
func (RatioPreserving) SharedDraws() bool { return true }

// Biases implements Scheme.
func (RatioPreserving) Biases(classes []fec.Class, p Params) []int {
	out := make([]int, len(classes))
	if len(classes) == 0 {
		return out
	}
	t1 := classes[0].Support
	b1 := p.MaxBias(t1)
	for i, c := range classes {
		b := int(math.Round(float64(b1) * float64(c.Support) / float64(t1)))
		if m := p.MaxBias(c.Support); b > m {
			b = m
		}
		out[i] = b
	}
	return out
}

// OrderPreserving is the dynamic-programming bias setting of Algorithm 1
// (§VI-A): choose biases minimizing the weighted sum of pairwise inversion
// costs Σ_{i<j} (s_i+s_j)(α+1−d_ij)² over overlapping uncertainty regions,
// subject to strictly increasing perturbation estimators e_i = t_i + β_i.
// Each class interacts only with its γ predecessors (the paper's lookback
// approximation); candidate biases are drawn from a grid of at most
// GridSize values per class to bound the DP state space.
type OrderPreserving struct {
	// Gamma is the DP lookback depth γ. Zero means the default of 2, the
	// knee of the quality/cost curve in the paper's Fig. 6; a negative
	// value means a true γ of 0 (no pairwise terms at all, degenerating to
	// zero biases — the Fig. 6 sweep's leftmost point).
	Gamma int
	// GridSize caps the candidate biases per class (0 means default 13).
	// The grid always contains −β^m, 0 and β^m.
	GridSize int
	// MaxStates beam-bounds the DP: after each class, only the cheapest
	// MaxStates states survive (0 means default 4096). The bound bites only
	// at large γ, where the exact state space GridSize^γ explodes; the
	// paper's own γ-truncation already accepts near-optimality there.
	MaxStates int
}

// Name implements Scheme.
func (s OrderPreserving) Name() string { return fmt.Sprintf("order-preserving(γ=%d)", s.gamma()) }

// SharedDraws implements Scheme.
func (OrderPreserving) SharedDraws() bool { return true }

func (s OrderPreserving) gamma() int {
	if s.Gamma < 0 {
		return 0
	}
	if s.Gamma == 0 {
		return 2
	}
	return s.Gamma
}

func (s OrderPreserving) maxStates() int {
	if s.MaxStates <= 0 {
		return 4096
	}
	return s.MaxStates
}

func (s OrderPreserving) gridSize() int {
	if s.GridSize <= 0 {
		return 13
	}
	if s.GridSize < 3 {
		return 3
	}
	return s.GridSize
}

// appendCandidates appends the bias grid for one class to dst: every
// integer in [−β^m, β^m] when that is small, otherwise an even sampling
// that always includes the endpoints and zero, sorted ascending. The grid
// is small (at most gridSize+1 entries), so duplicate elimination is a
// linear scan. This runs once per class per un-memoized Publish, so it is
// on the publish hot path.
func (s OrderPreserving) appendCandidates(dst []int, p Params, t int) []int {
	bm := p.MaxBias(t)
	m := s.gridSize()
	if 2*bm+1 <= m {
		for b := -bm; b <= bm; b++ {
			dst = append(dst, b)
		}
		return dst
	}
	start := len(dst)
	step := 2 * float64(bm) / float64(m-1)
	for k := 0; k <= m; k++ {
		b := 0 // the final pass appends 0, matching the historical grid
		if k < m {
			b = int(math.Round(-float64(bm) + float64(k)*step))
		}
		if !slices.Contains(dst[start:], b) {
			dst = append(dst, b)
		}
	}
	// Keep the grid sorted after the possible append of 0.
	out := dst[start:]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return dst
}

// denseStateLimit is the largest per-tier state space (maxGrid^min(γ, n))
// the DP runs on flat arrays (biasesDense). Beyond it — large γ at a wide
// grid — the map implementation (biasesSparse) takes over: it bounds live
// states by the beam instead of materializing the full key space. Both
// paths compute the identical bias assignment, ties included;
// TestOrderPreservingDenseSparseAgree pins that, with the sparse path as
// the oracle.
const denseStateLimit = 4096

// dpArena is the scratch of one bias optimization: the candidate grids,
// the backtracking chain, two cost tiers and per-candidate scratch. Arenas
// are pooled, so a steady-state publish allocates none of it, and every
// concurrent Biases call (butterflyd runs one publisher per stream) holds
// its own.
type dpArena struct {
	grid    []int   // every class's candidate biases, back to back
	ends    []int   // ends[i] is the end of class i's grid in grid
	cands   [][]int // per-class views into grid
	pow     []int   // pow[k] = maxGrid^k
	offsets []int   // class i's backtracking states start at prev[offsets[i]]
	prev    []int32
	cost    []int64
	next    []int64
	// Per candidate of the current class:
	est   []int   // its estimator
	zero  []int   // predecessors whose pair term is zero
	feas  []int   // (γ=1) predecessors below its estimator
	hold  []int64 // pair terms that do not depend on the dropped class
	above []int   // per candidate of the previous class: the first one above it
	idxs  []int
	keys  []int
}

var dpArenas = sync.Pool{New: func() any { return new(dpArena) }}

// resize returns s with length n, reallocating only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// grids fills the arena with every class's candidate grid and returns the
// per-class grids and the widest grid's size.
func (s OrderPreserving) grids(a *dpArena, classes []fec.Class, p Params) ([][]int, int) {
	a.grid, a.ends = a.grid[:0], a.ends[:0]
	for _, c := range classes {
		a.grid = s.appendCandidates(a.grid, p, c.Support)
		a.ends = append(a.ends, len(a.grid))
	}
	a.cands = a.cands[:0]
	maxGrid, start := 0, 0
	for _, end := range a.ends {
		a.cands = append(a.cands, a.grid[start:end:end])
		maxGrid = max(maxGrid, end-start)
		start = end
	}
	return a.cands, maxGrid
}

// Biases implements Scheme via the γ-lookback dynamic program.
func (s OrderPreserving) Biases(classes []fec.Class, p Params) []int {
	n := len(classes)
	out := make([]int, n)
	if n == 0 {
		return out
	}
	gamma := s.gamma()
	if gamma == 0 {
		return out // no pairwise terms: the zero-bias assignment is optimal
	}
	a := dpArenas.Get().(*dpArena)
	defer dpArenas.Put(a)
	cands, maxGrid := s.grids(a, classes, p)
	space := 1
	for k := 0; k < min(gamma, n); k++ {
		space *= maxGrid
		if space > denseStateLimit {
			return s.biasesSparse(classes, p, cands, maxGrid, out)
		}
	}
	return s.biasesDense(a, classes, p, cands, maxGrid, out)
}

// noState marks an absent DP state in the dense cost tiers.
const noState = math.MaxInt64

func fillNoState(costs []int64) {
	for k := range costs {
		costs[k] = noState
	}
}

// biasesDense is the flat-array DP. A state after class i is the tuple of
// candidate indices of the last min(γ, i+1) classes, encoded base maxGrid
// with the oldest class as the most significant digit; costs live in dense
// int64 arrays indexed by that key, noState marking absent states.
//
// It chooses exactly what biasesSparse chooses, ties included, because:
//
//   - Costs are exact integers. Every pair term is w·gap² with integer
//     weight and gap, so the sums are exact and the order of additions
//     cannot turn a tie into a strict inequality or back.
//   - The sparse DP visits predecessor keys in ascending order and a later
//     predecessor replaces an earlier one only at strictly lower cost, so
//     each state keeps the first argmin. Once the state is full, the
//     predecessors of state (r, c) — r the digits of classes i−γ+1..i−1,
//     c class i's candidate — are the keys d·maxGrid^(γ−1)+r for the
//     dropped class i−γ's candidates d, ascending in d. Only the pair term
//     between i−γ and i depends on d; the others are added once, after the
//     minimum. Candidates are sorted, so the predecessors whose estimator
//     lies at least α+1 below class i's — zero pair term — are a prefix of
//     d, and one first-argmin prefix minimum per r answers them; the rest
//     are scanned in order up to the last live predecessor (or, at γ=1,
//     up to the first one the estimator order excludes).
//   - The beam and the final pick break ties by the smaller key, as the
//     sparse path does.
//
// Per class, this costs O(maxGrid^γ·γ) for the prefix minima, the hoisted
// terms and the state updates, plus the short scans, against
// O(maxGrid^(γ+1)·γ) for visiting every (predecessor, candidate) pair. All
// scratch comes from the arena.
func (s OrderPreserving) biasesDense(a *dpArena, classes []fec.Class, p Params, cands [][]int, maxGrid int, out []int) []int {
	n := len(classes)
	gamma := s.gamma()
	alpha := p.Alpha()
	beam := s.maxStates()
	g := maxGrid

	// pair is the inversion cost of classes j < i at biases bj, bi.
	pair := func(j, i, bj, bi int) int64 {
		d := (classes[i].Support + bi) - (classes[j].Support + bj)
		if d >= alpha+1 {
			return 0
		}
		gap := int64(alpha + 1 - d)
		return int64(classes[j].Size()+classes[i].Size()) * gap * gap
	}

	span := min(gamma, n)
	pow := resize(a.pow, span+1)
	a.pow = pow
	pow[0] = 1
	for k := 1; k <= span; k++ {
		pow[k] = pow[k-1] * g
	}
	// prev[offsets[i]+key] is the predecessor key of state `key` after
	// class i — the backtracking chain, stored as one flat arena.
	offsets := resize(a.offsets, n+1)
	a.offsets = offsets
	offsets[0] = 0
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + pow[min(gamma, i+1)]
	}
	prev := resize(a.prev, offsets[n])
	cost := resize(a.cost, pow[span])
	next := resize(a.next, pow[span])
	a.prev, a.cost, a.next = prev, cost, next
	est := resize(a.est, g)
	zero := resize(a.zero, g)
	feas := resize(a.feas, g)
	above := resize(a.above, g)
	hold := resize(a.hold, g)
	clear(hold) // stays zero at γ=1
	idxs := resize(a.idxs, gamma)
	a.est, a.zero, a.feas, a.above, a.hold, a.idxs = est, zero, feas, above, hold, idxs

	fillNoState(cost[:g])
	for c := range cands[0] {
		cost[c] = 0
	}

	for i := 1; i < n; i++ {
		spanPrev := min(gamma, i) // classes i-spanPrev..i-1 are in the predecessor state
		spaceCur := pow[min(gamma, i+1)]
		nx := next[:spaceCur]
		ti, cur := classes[i].Support, cands[i]
		pv := prev[offsets[i]:offsets[i+1]]
		live := 0

		if spanPrev < gamma {
			// The state still grows: each new key has exactly one
			// predecessor, so there is nothing to minimize.
			fillNoState(nx)
			for key := 0; key < pow[spanPrev]; key++ {
				base := cost[key]
				if base == noState {
					continue
				}
				k := key
				for j := spanPrev - 1; j >= 0; j-- {
					idxs[j] = k % g
					k /= g
				}
				eprev := classes[i-1].Support + cands[i-1][idxs[spanPrev-1]]
				for c, b := range cur {
					if ti+b <= eprev {
						continue // estimator order violated
					}
					add := base
					for off := 0; off < spanPrev; off++ {
						j := i - spanPrev + off
						add += pair(j, i, cands[j][idxs[off]], b)
					}
					nkey := key*g + c
					nx[nkey] = add
					pv[nkey] = int32(key)
					live++
				}
			}
		} else {
			dropMod := pow[gamma-1]
			jd := i - gamma // the class that leaves the state
			td, cd := classes[jd].Support, cands[jd]
			wd := int64(classes[jd].Size() + classes[i].Size())
			est := est[:len(cur)]
			for c, b := range cur {
				est[c] = ti + b
			}
			// zero[c]: the dropped class's candidates d < zero[c] sit at
			// least α+1 below candidate c, so their pair term is zero.
			// feas[c] (γ=1, where the dropped class is i−1): candidates
			// d < feas[c] keep the estimator order below candidate c.
			dz, df := 0, 0
			for c, e := range est {
				for dz < len(cd) && td+cd[dz] <= e-alpha-1 {
					dz++
				}
				for df < len(cd) && td+cd[df] < e {
					df++
				}
				zero[c], feas[c] = dz, df
			}
			// above[k]: class i's first candidate above class i−1's
			// candidate k (γ ≥ 2, where class i−1 is in the state).
			if gamma > 1 {
				c, tp := 0, classes[i-1].Support
				for k, b := range cands[i-1] {
					for c < len(est) && est[c] <= tp+b {
						c++
					}
					above[k] = c
				}
			}
			for r := 0; r < dropMod; r++ {
				last := len(cd) // one past the last live predecessor d·dropMod+r
				for last > 0 && cost[(last-1)*dropMod+r] == noState {
					last--
				}
				row := nx[r*g : r*g+g]
				if last == 0 {
					fillNoState(row)
					continue
				}
				// hold[c] sums the pair terms of classes i−γ+1..i−1 —
				// the digits of r — which do not depend on the dropped
				// class, so they are added after the minimum.
				first := 0
				if gamma > 1 {
					first = above[r%g]
					fillNoState(row[:first])
					clear(hold[first:])
					for off, k := gamma-1, r; off > 0; off, k = off-1, k/g {
						j := jd + off
						w := int64(classes[j].Size() + classes[i].Size())
						lim := classes[j].Support + cands[j][k%g] + alpha + 1
						for c := first; c < len(est); c++ {
							gap := int64(lim - est[c])
							if gap <= 0 {
								break // the gap only grows with c
							}
							hold[c] += w * gap * gap
						}
					}
				}
				// Predecessors below lo(c) = min(zero[c], hi(c)) have a
				// zero pair term; lo never decreases with c, so one running
				// first-argmin prefix minimum serves every candidate.
				p, pmCost, pmArg := 0, int64(noState), 0
				for c := first; c < len(est); c++ {
					hi := last
					if gamma == 1 {
						hi = min(hi, feas[c])
					}
					lo := min(zero[c], hi)
					for ; p < lo; p++ {
						if v := cost[p*dropMod+r]; v < pmCost {
							pmCost, pmArg = v, p
						}
					}
					best, arg := pmCost, pmArg
					base := est[c] - alpha - 1
					for d := lo; d < hi; d++ {
						if v := cost[d*dropMod+r]; v != noState {
							gap := int64(td + cd[d] - base)
							if v += wd * gap * gap; v < best {
								best, arg = v, d
							}
						}
					}
					if best == noState {
						row[c] = noState
						continue
					}
					row[c] = best + hold[c]
					pv[r*g+c] = int32(arg*dropMod + r)
					live++
				}
				fillNoState(row[len(est):])
			}
		}

		if live == 0 {
			// Cannot happen: the all-zero-bias chain is always feasible
			// because class supports are strictly increasing. Guard anyway.
			z := indexOf(cur, 0)
			nx[z] = 0
			pv[z] = 0
			live = 1
		}
		// Beam bound: keep only the cheapest states (ties by key, matching
		// the sparse path) so a small MaxStates stays honored.
		if live > beam {
			keys := a.keys[:0]
			for k, v := range nx {
				if v != noState {
					keys = append(keys, k)
				}
			}
			a.keys = keys
			slices.SortFunc(keys, func(x, y int) int {
				if c := cmp.Compare(nx[x], nx[y]); c != 0 {
					return c
				}
				return cmp.Compare(x, y)
			})
			for _, k := range keys[beam:] {
				nx[k] = noState
			}
		}
		cost, next = next, cost
	}

	// Pick the cheapest final state (smallest key on ties) and backtrack.
	bestKey := 0
	best := int64(noState)
	for key, v := range cost[:pow[span]] {
		if v < best {
			best, bestKey = v, key
		}
	}
	key := bestKey
	for i := n - 1; i >= 0; i-- {
		out[i] = cands[i][key%g] // the last tuple element is the low digit
		key = int(prev[offsets[i]+key])
	}
	return out
}

// biasesSparse is the historical map-based DP, kept for state spaces too
// large to materialize densely (large γ × wide grid — the beam bound keeps
// the maps small there). It must stay behaviorally identical to
// biasesDense; TestOrderPreservingDenseSparseAgree pins that.
func (s OrderPreserving) biasesSparse(classes []fec.Class, p Params, cands [][]int, maxGrid int, out []int) []int {
	n := len(classes)
	gamma := s.gamma()
	alpha := p.Alpha()

	// cost of the (j, i) pair (j < i) given their biases.
	pairCost := func(j, i, bj, bi int) float64 {
		d := (classes[i].Support + bi) - (classes[j].Support + bj)
		if d >= alpha+1 {
			return 0
		}
		w := float64(classes[j].Size() + classes[i].Size())
		gap := float64(alpha + 1 - d)
		return w * gap * gap
	}

	// DP over states: the candidate indices of the most recent min(γ, i+1)
	// classes, encoded base-maxGrid.
	encode := func(idxs []int) uint64 {
		var k uint64
		for _, v := range idxs {
			k = k*uint64(maxGrid) + uint64(v)
		}
		return k
	}

	type entry struct {
		cost float64
		prev uint64 // predecessor state key
		ok   bool
	}
	// states[i] maps the state after choosing class i's bias.
	states := make([]map[uint64]entry, n)

	states[0] = map[uint64]entry{}
	for ci := range cands[0] {
		states[0][encode([]int{ci})] = entry{cost: 0, ok: true}
	}

	// Map iteration order is randomized; DP must process states in a fixed
	// order so equal-cost ties resolve identically across runs.
	sortedKeys := func(m map[uint64]entry) []uint64 {
		keys := make([]uint64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		return keys
	}

	for i := 1; i < n; i++ {
		states[i] = map[uint64]entry{}
		span := min(gamma, i) // classes i-span..i-1 are in the predecessor state
		for _, key := range sortedKeys(states[i-1]) {
			ent := states[i-1][key]
			idxs := decode(key, min(gamma, i), maxGrid)
			// idxs holds candidate indices of classes i-span..i-1.
			lastIdx := idxs[len(idxs)-1]
			eprev := classes[i-1].Support + cands[i-1][lastIdx]
			for ci, bi := range cands[i] {
				if classes[i].Support+bi <= eprev {
					continue // estimator order violated
				}
				add := 0.0
				for off, cj := range idxs {
					j := i - span + off
					add += pairCost(j, i, cands[j][cj], bi)
				}
				// Pairs farther than γ back are treated as non-overlapping.
				nidxs := append(append([]int{}, idxs...), ci)
				if len(nidxs) > gamma {
					nidxs = nidxs[1:]
				}
				nkey := encode(nidxs)
				cand := entry{cost: ent.cost + add, prev: key, ok: true}
				if cur, ok := states[i][nkey]; !ok || cand.cost < cur.cost {
					states[i][nkey] = cand
				}
			}
		}
		if len(states[i]) == 0 {
			// Cannot happen: the all-zero-bias chain is always feasible
			// because class supports are strictly increasing. Guard anyway.
			zero := indexOf(cands[i], 0)
			states[i][encode([]int{zero})] = entry{ok: true}
		}
		// Beam bound: keep only the cheapest states so large γ stays
		// tractable (GridSize^γ states otherwise).
		if beam := s.maxStates(); len(states[i]) > beam {
			keys := sortedKeys(states[i])
			sort.Slice(keys, func(a, b int) bool {
				ca, cb := states[i][keys[a]].cost, states[i][keys[b]].cost
				if ca != cb {
					return ca < cb
				}
				return keys[a] < keys[b]
			})
			for _, k := range keys[beam:] {
				delete(states[i], k)
			}
		}
	}

	// Pick the cheapest final state (first in key order on ties) and
	// backtrack.
	var bestKey uint64
	best := math.Inf(1)
	for _, key := range sortedKeys(states[n-1]) {
		if ent := states[n-1][key]; ent.cost < best {
			best = ent.cost
			bestKey = key
		}
	}
	key := bestKey
	for i := n - 1; i >= 0; i-- {
		idxs := decode(key, min(gamma, i+1), maxGrid)
		out[i] = cands[i][idxs[len(idxs)-1]]
		key = states[i][key].prev
	}
	return out
}

func decode(key uint64, length, base int) []int {
	out := make([]int, length)
	for i := length - 1; i >= 0; i-- {
		out[i] = int(key % uint64(base))
		key /= uint64(base)
	}
	return out
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return 0
}

// Hybrid combines the order- and ratio-preserving biases linearly
// (§VI-C): β = λ·β_OP + (1−λ)·β_RP. λ=1 reduces to order preservation,
// λ=0 to ratio preservation; the paper finds λ≈0.4 a good overall balance.
type Hybrid struct {
	// Lambda weights order preservation; must lie in [0, 1].
	Lambda float64
	// Order configures the embedded order-preserving DP.
	Order OrderPreserving
}

// Name implements Scheme.
func (h Hybrid) Name() string { return fmt.Sprintf("hybrid(λ=%.2g)", h.Lambda) }

// SharedDraws implements Scheme.
func (Hybrid) SharedDraws() bool { return true }

// Biases implements Scheme.
func (h Hybrid) Biases(classes []fec.Class, p Params) []int {
	if h.Lambda < 0 || h.Lambda > 1 {
		panic(fmt.Sprintf("core: hybrid λ=%v outside [0,1]", h.Lambda))
	}
	op := h.Order.Biases(classes, p)
	rp := RatioPreserving{}.Biases(classes, p)
	out := make([]int, len(classes))
	for i := range out {
		b := int(math.Round(h.Lambda*float64(op[i]) + (1-h.Lambda)*float64(rp[i])))
		if m := p.MaxBias(classes[i].Support); b > m {
			b = m
		} else if b < -m {
			b = -m
		}
		out[i] = b
	}
	return out
}

// SchemeByName builds a bias scheme from its CLI/control-plane spelling:
// "basic", "order"/"op" (with lookback gamma), "ratio"/"rp", or "hybrid"
// (λ = lambda blending order against ratio). It is the single parser behind
// cmd/butterfly's -scheme flag and the sanitization server's per-stream
// stream configs, so the two surfaces cannot drift.
func SchemeByName(name string, lambda float64, gamma int) (Scheme, error) {
	switch strings.ToLower(name) {
	case "basic":
		return Basic{}, nil
	case "order", "op":
		return OrderPreserving{Gamma: gamma}, nil
	case "ratio", "rp":
		return RatioPreserving{}, nil
	case "hybrid", "":
		if lambda < 0 || lambda > 1 {
			return nil, fmt.Errorf("core: hybrid lambda %v outside [0,1]", lambda)
		}
		return Hybrid{Lambda: lambda, Order: OrderPreserving{Gamma: gamma}}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %q (basic, order, ratio, hybrid)", name)
	}
}
