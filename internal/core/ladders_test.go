package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/fec"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// genLadder is the FEC ladder of one window of a generator stream, with the
// Params its workload publishes under.
type genLadder struct {
	name    string
	classes []fec.Class
	params  Params
}

var (
	genLaddersOnce sync.Once
	genLaddersAll  []genLadder
)

// generatorLadders mines three windows of each of the two benchmark stream
// profiles — WebView-like at H=4000, C=20 and POS-like at H=2000, C=40, both
// at ε=0.1, δ=0.4, K=5 — and returns their FEC ladders: the inputs the
// Alg. 1 DP sees when publishing those streams.
func generatorLadders(tb testing.TB) []genLadder {
	tb.Helper()
	genLaddersOnce.Do(func() {
		for _, prof := range []struct {
			name        string
			gen         func(uint64) *data.Generator
			window, c   int
			profileSeed uint64
		}{
			{"webview", data.WebViewLike, 4000, 20, 1019},
			{"pos", data.POSLike, 2000, 40, 2027},
		} {
			recs := prof.gen(prof.profileSeed).Generate(2 * prof.window)
			for _, start := range []int{0, prof.window / 2, prof.window} {
				res, err := mining.Eclat(itemset.NewDatabase(recs[start:start+prof.window]), prof.c)
				if err != nil {
					panic(err)
				}
				genLaddersAll = append(genLaddersAll, genLadder{
					name:    fmt.Sprintf("%s@%d", prof.name, start),
					classes: fec.Partition(res),
					params:  Params{Epsilon: 0.1, Delta: 0.4, MinSupport: prof.c, VulnSupport: 5},
				})
			}
		}
	})
	return genLaddersAll
}

// biasSink keeps benchmarked results live.
var biasSink []int

// BenchmarkOrderPreservingBiases times one Alg. 1 DP (the default γ=2 and
// grid) per generator ladder, the per-window bias optimization cost the
// pipeline benchmarks cannot isolate.
func BenchmarkOrderPreservingBiases(b *testing.B) {
	for _, prof := range []string{"webview", "pos"} {
		var ladders []genLadder
		for _, l := range generatorLadders(b) {
			if strings.HasPrefix(l.name, prof+"@") {
				ladders = append(ladders, l)
			}
		}
		b.Run(prof, func(b *testing.B) {
			s := OrderPreserving{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := ladders[i%len(ladders)]
				biasSink = s.Biases(l.classes, l.params)
			}
		})
	}
}
