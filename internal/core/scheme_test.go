package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/fec"
	"repro/internal/itemset"
	"repro/internal/rng"
)

// classesWith builds FECs with the given supports (ascending) and sizes 1.
func classesWith(supports ...int) []fec.Class {
	out := make([]fec.Class, len(supports))
	for i, s := range supports {
		out[i] = fec.Class{Support: s, Members: []itemset.Itemset{itemset.New(itemset.Item(i))}}
	}
	return out
}

func testParams() Params {
	return Params{Epsilon: 0.016, Delta: 0.4, MinSupport: 25, VulnSupport: 5}
}

func checkWithinMaxBias(t *testing.T, name string, classes []fec.Class, p Params, biases []int) {
	t.Helper()
	if len(biases) != len(classes) {
		t.Fatalf("%s: %d biases for %d classes", name, len(biases), len(classes))
	}
	for i, b := range biases {
		m := p.MaxBias(classes[i].Support)
		if b > m || b < -m {
			t.Errorf("%s: class %d (t=%d) bias %d outside ±%d",
				name, i, classes[i].Support, b, m)
		}
	}
}

func TestBasicBiasesAllZero(t *testing.T) {
	classes := classesWith(25, 30, 50)
	b := Basic{}.Biases(classes, testParams())
	for i, v := range b {
		if v != 0 {
			t.Errorf("basic bias[%d] = %d", i, v)
		}
	}
	if (Basic{}).SharedDraws() {
		t.Error("basic must draw per itemset")
	}
	if (Basic{}).Name() != "basic" {
		t.Error("name wrong")
	}
}

func TestRatioPreservingProportional(t *testing.T) {
	p := testParams()
	classes := classesWith(25, 50, 100, 200)
	b := RatioPreserving{}.Biases(classes, p)
	checkWithinMaxBias(t, "rp", classes, p, b)
	if b[0] != p.MaxBias(25) {
		t.Errorf("β1 = %d, want max adjustable bias %d", b[0], p.MaxBias(25))
	}
	// β_i/t_i should be (nearly) constant.
	r0 := float64(b[0]) / 25
	for i, c := range classes {
		r := float64(b[i]) / float64(c.Support)
		if math.Abs(r-r0) > 0.05*r0+0.05 {
			t.Errorf("ratio β/t at class %d = %v, want ≈ %v", i, r, r0)
		}
	}
}

func TestRatioPreservingEmptyAndSingle(t *testing.T) {
	p := testParams()
	if got := (RatioPreserving{}).Biases(nil, p); len(got) != 0 {
		t.Error("empty classes should give empty biases")
	}
	b := RatioPreserving{}.Biases(classesWith(30), p)
	if len(b) != 1 || b[0] != p.MaxBias(30) {
		t.Errorf("single class bias = %v", b)
	}
}

// Lemma 3 as a property: the proportional bias never exceeds the class's own
// maximum adjustable bias, across random support ladders.
func TestRatioPreservingLemma3(t *testing.T) {
	src := rng.New(606)
	p := testParams()
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(20)
		sup := 25
		var sups []int
		for i := 0; i < n; i++ {
			sup += 1 + src.Intn(40)
			sups = append(sups, sup)
		}
		classes := classesWith(sups...)
		b := RatioPreserving{}.Biases(classes, p)
		for i := range classes {
			m := p.MaxBias(classes[i].Support)
			if b[i] > m {
				t.Fatalf("trial %d: bias %d exceeds βm %d at t=%d",
					trial, b[i], m, classes[i].Support)
			}
		}
	}
}

func TestOrderPreservingKeepsEstimatorOrder(t *testing.T) {
	p := testParams()
	src := rng.New(707)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.Intn(15)
		sup := 25
		var sups []int
		for i := 0; i < n; i++ {
			sup += 1 + src.Intn(6) // dense ladder: overlaps likely
			sups = append(sups, sup)
		}
		classes := classesWith(sups...)
		for _, gamma := range []int{1, 2, 3} {
			b := OrderPreserving{Gamma: gamma}.Biases(classes, p)
			checkWithinMaxBias(t, "op", classes, p, b)
			for i := 1; i < n; i++ {
				ei := classes[i].Support + b[i]
				ep := classes[i-1].Support + b[i-1]
				if ei <= ep {
					t.Fatalf("trial %d γ=%d: estimator order violated at %d: %d <= %d",
						trial, gamma, i, ei, ep)
				}
			}
		}
	}
}

// On a dense ladder the DP should spread estimators further apart than the
// zero-bias assignment, reducing the overlap cost.
func TestOrderPreservingReducesOverlapCost(t *testing.T) {
	p := testParams()
	classes := classesWith(25, 26, 27, 28, 29, 30)
	alpha := p.Alpha()
	cost := func(b []int) float64 {
		total := 0.0
		for i := 0; i < len(classes); i++ {
			for j := 0; j < i; j++ {
				d := (classes[i].Support + b[i]) - (classes[j].Support + b[j])
				if d < alpha+1 {
					w := float64(classes[i].Size() + classes[j].Size())
					total += w * float64(alpha+1-d) * float64(alpha+1-d)
				}
			}
		}
		return total
	}
	zero := make([]int, len(classes))
	op := OrderPreserving{Gamma: 2}.Biases(classes, p)
	if cost(op) > cost(zero) {
		t.Errorf("DP cost %v exceeds zero-bias cost %v (biases %v)", cost(op), cost(zero), op)
	}
}

// Larger γ can only improve (or tie) the exhaustive pairwise cost on a small
// instance where the full DP is exact.
func TestOrderPreservingGammaMonotone(t *testing.T) {
	p := testParams()
	classes := classesWith(25, 26, 28, 29, 31)
	alpha := p.Alpha()
	cost := func(b []int) float64 {
		total := 0.0
		for i := 0; i < len(classes); i++ {
			for j := 0; j < i; j++ {
				d := (classes[i].Support + b[i]) - (classes[j].Support + b[j])
				if d < alpha+1 {
					w := float64(classes[i].Size() + classes[j].Size())
					total += w * float64(alpha+1-d) * float64(alpha+1-d)
				}
			}
		}
		return total
	}
	c1 := cost(OrderPreserving{Gamma: 1}.Biases(classes, p))
	c4 := cost(OrderPreserving{Gamma: 4}.Biases(classes, p))
	if c4 > c1+1e-9 {
		t.Errorf("γ=4 cost %v worse than γ=1 cost %v", c4, c1)
	}
}

func TestOrderPreservingEdgeCases(t *testing.T) {
	p := testParams()
	if got := (OrderPreserving{}).Biases(nil, p); len(got) != 0 {
		t.Error("empty classes")
	}
	b := OrderPreserving{}.Biases(classesWith(40), p)
	if len(b) != 1 {
		t.Fatalf("single class: %v", b)
	}
	checkWithinMaxBias(t, "op-single", classesWith(40), p, b)
}

func TestOrderPreservingCandidatesIncludeAnchors(t *testing.T) {
	p := Params{Epsilon: 0.05, Delta: 0.2, MinSupport: 25, VulnSupport: 5}
	s := OrderPreserving{GridSize: 7}
	c := s.appendCandidates(nil, p, 500) // βm large, grid sampled
	bm := p.MaxBias(500)
	has := func(v int) bool {
		for _, x := range c {
			if x == v {
				return true
			}
		}
		return false
	}
	if !has(0) || !has(bm) || !has(-bm) {
		t.Errorf("candidates %v missing anchors 0/±%d", c, bm)
	}
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] {
			t.Errorf("candidates not sorted: %v", c)
		}
	}
}

func TestHybridInterpolates(t *testing.T) {
	p := testParams()
	classes := classesWith(25, 40, 80, 160)
	op := OrderPreserving{Gamma: 2}.Biases(classes, p)
	rp := RatioPreserving{}.Biases(classes, p)
	h0 := Hybrid{Lambda: 0}.Biases(classes, p)
	h1 := Hybrid{Lambda: 1}.Biases(classes, p)
	for i := range classes {
		if h0[i] != rp[i] {
			t.Errorf("λ=0 class %d: %d != rp %d", i, h0[i], rp[i])
		}
		if h1[i] != op[i] {
			t.Errorf("λ=1 class %d: %d != op %d", i, h1[i], op[i])
		}
	}
	h := Hybrid{Lambda: 0.4}.Biases(classes, p)
	checkWithinMaxBias(t, "hybrid", classes, p, h)
	for i := range classes {
		lo, hi := min(op[i], rp[i]), max(op[i], rp[i])
		if h[i] < lo || h[i] > hi {
			t.Errorf("hybrid bias %d outside [%d,%d]", h[i], lo, hi)
		}
	}
}

func TestHybridPanicsOnBadLambda(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("λ=2 did not panic")
		}
	}()
	Hybrid{Lambda: 2}.Biases(classesWith(25, 30), testParams())
}

func TestSchemeNames(t *testing.T) {
	if (OrderPreserving{Gamma: 3}).Name() != "order-preserving(γ=3)" {
		t.Error("op name")
	}
	if (RatioPreserving{}).Name() != "ratio-preserving" {
		t.Error("rp name")
	}
	if (Hybrid{Lambda: 0.4}).Name() != "hybrid(λ=0.4)" {
		t.Error("hybrid name")
	}
}

// denseSparseAgree runs both DP paths on one ladder and fails unless they
// choose the identical biases and those biases keep the estimators strictly
// increasing.
func denseSparseAgree(t *testing.T, label string, s OrderPreserving, classes []fec.Class, p Params) {
	t.Helper()
	n := len(classes)
	a := new(dpArena)
	cands, maxGrid := s.grids(a, classes, p)
	dense := s.biasesDense(a, classes, p, cands, maxGrid, make([]int, n))
	sparse := s.biasesSparse(classes, p, cands, maxGrid, make([]int, n))
	if !slices.Equal(dense, sparse) {
		t.Fatalf("%s (γ=%d grid=%d beam=%d n=%d): dense %v != sparse %v",
			label, s.gamma(), s.GridSize, s.MaxStates, n, dense, sparse)
	}
	for i := 1; i < n; i++ {
		if ei, ep := classes[i].Support+dense[i], classes[i-1].Support+dense[i-1]; ei <= ep {
			t.Fatalf("%s (γ=%d): estimator order violated at class %d: %d <= %d",
				label, s.gamma(), i, ei, ep)
		}
	}
}

// TestOrderPreservingDenseSparseAgree pins the flat-array DP to the sparse
// map DP, the oracle: both paths must choose the identical bias assignment
// — including cost ties, which both must resolve toward the smallest
// encoded state key — and keep the estimator order. This is what keeps
// published bytes stable across the denseStateLimit boundary. Inputs:
// random ladders over a spread of γ/grid settings; the FEC ladders of
// generator windows (the benchmark's WebView-like and POS-like streams) at
// γ = 1, 2, 3 and under a small beam; and hand-built ladders with
// consecutive supports, where the estimator order binds, both with equal
// class sizes (many cost ties) and with heavy classes around light ones
// (where dropping the order constraint would pay).
func TestOrderPreservingDenseSparseAgree(t *testing.T) {
	src := rng.New(20260808)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(12)
		classes := make([]fec.Class, n)
		sup := 20 + src.Intn(10)
		for i := range classes {
			size := 1 + src.Intn(4)
			members := make([]itemset.Itemset, size)
			for j := range members {
				members[j] = itemset.New(itemset.Item(i*10 + j))
			}
			classes[i] = fec.Class{Support: sup, Members: members}
			sup += 1 + src.Intn(40)
		}
		p := Params{Epsilon: 0.01 + src.Float64()*0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5}
		gamma := 1 + src.Intn(3)
		grid := []int{0, 5, 13}[src.Intn(3)]
		denseSparseAgree(t, fmt.Sprintf("random trial %d", trial), OrderPreserving{Gamma: gamma, GridSize: grid}, classes, p)
	}

	for _, l := range generatorLadders(t) {
		for _, gamma := range []int{1, 2, 3} {
			denseSparseAgree(t, l.name, OrderPreserving{Gamma: gamma}, l.classes, l.params)
		}
		denseSparseAgree(t, l.name, OrderPreserving{Gamma: 2, MaxStates: 5}, l.classes, l.params)
	}

	sized := func(start int, sizes ...int) []fec.Class {
		out := make([]fec.Class, len(sizes))
		for i, size := range sizes {
			members := make([]itemset.Itemset, size)
			for j := range members {
				members[j] = itemset.New(itemset.Item(i*100 + j))
			}
			out[i] = fec.Class{Support: start + i, Members: members}
		}
		return out
	}
	equal := make([]int, 12)
	for i := range equal {
		equal[i] = 3
	}
	for _, tc := range []struct {
		name    string
		classes []fec.Class
	}{
		{"consecutive equal sizes", sized(20, equal...)},
		{"consecutive equal sizes high", sized(60, equal...)},
		{"consecutive heavy-light", sized(30, 50, 1, 1, 50, 50, 1, 1, 50)},
		{"consecutive light-heavy", sized(25, 1, 40, 40, 1, 1, 40, 40, 1, 1, 40)},
	} {
		for _, eps := range []float64{0.02, 0.05, 0.1} {
			p := Params{Epsilon: eps, Delta: 0.4, MinSupport: 10, VulnSupport: 5}
			for _, gamma := range []int{1, 2, 3} {
				denseSparseAgree(t, tc.name, OrderPreserving{Gamma: gamma}, tc.classes, p)
			}
		}
	}
}

// TestOrderPreservingConcurrentCallsAgree runs the DP on every generator
// ladder from several goroutines at once: each call must take its own
// pooled arena and return what a lone call returns.
func TestOrderPreservingConcurrentCallsAgree(t *testing.T) {
	ladders := generatorLadders(t)
	s := OrderPreserving{}
	want := make([][]int, len(ladders))
	for i, l := range ladders {
		want[i] = s.Biases(l.classes, l.params)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(ladders); k++ {
				i := (g + k) % len(ladders)
				if got := s.Biases(ladders[i].classes, ladders[i].params); !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d, %s: %v, alone %v", g, ladders[i].name, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOrderPreservingSmallBeamDenseSparseAgree exercises the beam bound in
// both DP paths (MaxStates far below the state space) and pins them equal.
func TestOrderPreservingSmallBeamDenseSparseAgree(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 60; trial++ {
		n := 2 + src.Intn(8)
		classes := make([]fec.Class, n)
		sup := 25
		for i := range classes {
			classes[i] = fec.Class{Support: sup, Members: []itemset.Itemset{itemset.New(itemset.Item(i))}}
			sup += 1 + src.Intn(25)
		}
		p := Params{Epsilon: 0.05, Delta: 0.4, MinSupport: 10, VulnSupport: 5}
		s := OrderPreserving{Gamma: 2, MaxStates: 3}
		a := new(dpArena)
		cands, maxGrid := s.grids(a, classes, p)
		dense := s.biasesDense(a, classes, p, cands, maxGrid, make([]int, n))
		sparse := s.biasesSparse(classes, p, cands, maxGrid, make([]int, n))
		for i := range dense {
			if dense[i] != sparse[i] {
				t.Fatalf("trial %d: beam-bounded dense %v != sparse %v", trial, dense, sparse)
			}
		}
	}
}
