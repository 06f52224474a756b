package core

// Distribution conformance of the published perturbation (§V). The paper
// fixes the noise DISTRIBUTION of every FEC — one discrete-uniform draw on
// [−α/2, α/2] around the optimised bias — not the order in which the RNG is
// read, so these tests judge the single chunked draw order by that
// distribution (the Agrawal & Haritsa lens: a perturbation scheme is
// characterised by its distribution, not by sample bounds alone). Every
// check runs per scheme, inline (workers=1) and with a pool (workers=8), on
// fixed seeds: the statistics are deterministic, so the thresholds below can
// never flake.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fec"
	"repro/internal/mining"
	"repro/internal/rng"
)

// conformanceRounds is how often each mined window is republished with the
// republication cache off, so every round redraws: 4 windows × 30 rounds
// give ~3,400 shared draws (~7,400 per-itemset draws under Basic) over the
// 9 values of [−4, 4].
const conformanceRounds = 30

// chiSquareCritical is the chi-square critical value at p = 0.001 for df
// degrees of freedom, by the Wilson–Hilferty approximation (within 1% of
// the tabulated values for df ≥ 3).
func chiSquareCritical(df int) float64 {
	const z = 3.0902 // upper 0.001 quantile of the standard normal
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

func conformanceSchemes() []Scheme {
	return []Scheme{Basic{}, OrderPreserving{}, RatioPreserving{}, Hybrid{Lambda: 0.4}}
}

// biasBySupport maps each FEC's true support to the bias the scheme assigns
// it in res — the centre of that class's uncertainty region.
func biasBySupport(scheme Scheme, p Params, res *mining.Result) map[int]int {
	classes := fec.Partition(res)
	biases := scheme.Biases(classes, p)
	out := make(map[int]int, len(classes))
	for i, c := range classes {
		out[c.Support] = biases[i]
	}
	return out
}

// TestPerturbationConformsToUniformRegion publishes every mined window
// repeatedly with the cache off and checks, for each published value:
//
//   - the offset sanitized − support − bias lies in [−half, half], and its
//     histogram (one sample per draw: per class under shared-draw schemes,
//     per itemset under Basic) passes a chi-square test for the discrete
//     uniform distribution on that range;
//   - the value respects the ε ceiling: |bias| ≤ MaxBias(t), so the
//     expected precision loss (σ² + β²)/t² stays within ε, and the realised
//     error |sanitized − t| stays within MaxBias(t) + half;
//   - under shared-draw schemes every member of an FEC publishes the same
//     value (one draw per class).
func TestPerturbationConformsToUniformRegion(t *testing.T) {
	results := minedWindows(t)
	p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 12, VulnSupport: 5}
	half := p.Alpha() / 2
	bins := 2*half + 1
	for _, scheme := range conformanceSchemes() {
		biases := make([]map[int]int, len(results))
		for w, res := range results {
			biases[w] = biasBySupport(scheme, p, res)
		}
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", scheme.Name(), workers), func(t *testing.T) {
				pub, err := NewPublisher(p, scheme, rng.New(2024))
				if err != nil {
					t.Fatal(err)
				}
				pub.SetWorkers(workers)
				// DELIBERATELY INSECURE test mode: every round redraws, so
				// each publication contributes fresh samples.
				pub.SetRepublicationCache(false)
				hist := make([]int, bins)
				for round := 0; round < conformanceRounds; round++ {
					for w, res := range results {
						out, err := pub.Publish(res, 600)
						if err != nil {
							t.Fatal(err)
						}
						classValue := map[int]int{} // true support -> sanitized
						for _, item := range out.Items {
							sup, ok := res.Support(item.Set)
							if !ok {
								t.Fatalf("published unmined itemset %v", item.Set)
							}
							bias := biases[w][sup]
							if m := p.MaxBias(sup); bias < -m || bias > m {
								t.Fatalf("support %d: bias %d outside ±MaxBias %d", sup, bias, m)
							}
							if loss := (p.Sigma2() + float64(bias*bias)) / float64(sup*sup); loss > p.Epsilon+1e-12 {
								t.Fatalf("support %d: expected precision loss %.4f above ε = %v", sup, loss, p.Epsilon)
							}
							if dev := item.Support - sup; dev < -(p.MaxBias(sup)+half) || dev > p.MaxBias(sup)+half {
								t.Fatalf("support %d published as %d: error %d beyond MaxBias + α/2", sup, item.Support, dev)
							}
							offset := item.Support - sup - bias
							if offset < -half || offset > half {
								t.Fatalf("support %d: offset %d outside [−%d, %d]", sup, offset, half, half)
							}
							if scheme.SharedDraws() {
								if prev, seen := classValue[sup]; seen {
									if prev != item.Support {
										t.Fatalf("FEC with support %d published both %d and %d", sup, prev, item.Support)
									}
									continue // one sample per class draw
								}
								classValue[sup] = item.Support
							}
							hist[offset+half]++
						}
					}
				}
				n := 0
				for _, c := range hist {
					n += c
				}
				expected := float64(n) / float64(bins)
				if expected < 20 {
					t.Fatalf("only %d samples over %d bins: too few for a chi-square test", n, bins)
				}
				var chi2 float64
				for _, c := range hist {
					d := float64(c) - expected
					chi2 += d * d / expected
				}
				if limit := chiSquareCritical(bins - 1); chi2 > limit {
					t.Errorf("offset histogram %v (%d samples) is not uniform on [−%d, %d]: χ² = %.2f > %.2f",
						hist, n, half, half, chi2, limit)
				}
			})
		}
	}
}

// TestRepublicationConsistentAcrossWindows publishes the overlapping mined
// windows in stream order with the cache on: an itemset whose true support
// is unchanged from the previous window must republish its previous value
// verbatim (§V-C, Prior Knowledge 2), whichever chunk it falls in and
// however many workers draw the chunks.
func TestRepublicationConsistentAcrossWindows(t *testing.T) {
	results := minedWindows(t)
	p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 12, VulnSupport: 5}
	for _, scheme := range conformanceSchemes() {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", scheme.Name(), workers), func(t *testing.T) {
				pub, err := NewPublisher(p, scheme, rng.New(2024))
				if err != nil {
					t.Fatal(err)
				}
				pub.SetWorkers(workers)
				type published struct{ trueSup, value int }
				prev := map[string]published{}
				carried := 0
				for w, res := range results {
					out, err := pub.Publish(res, 600)
					if err != nil {
						t.Fatal(err)
					}
					cur := make(map[string]published, out.Len())
					for _, item := range out.Items {
						sup, _ := res.Support(item.Set)
						key := item.Set.Key()
						if was, ok := prev[key]; ok && was.trueSup == sup {
							carried++
							if item.Support != was.value {
								t.Fatalf("window %d: %v kept support %d but republished %d, was %d",
									w, item.Set, sup, item.Support, was.value)
							}
						}
						cur[key] = published{sup, item.Support}
					}
					prev = cur
				}
				if carried == 0 {
					t.Fatal("no itemset kept its support across windows: the fixture does not exercise republication")
				}
			})
		}
	}
}
