package engine

import (
	"strings"
	"testing"
	"time"

	"coral/internal/parser"
	"coral/internal/workload"
)

// FuzzParallelStream holds the worker pool to the inline rounds on arbitrary
// program text: every query of the text, run through a View at Parallelism 1
// and at 4, must return the same answers in the same order whenever both
// runs complete (budget trips depend on the wall clock, so aborted runs are
// not compared). Root FuzzEval cannot do this any more — its programs are
// far below the dispatch threshold and run inline on both arms — so the
// chunk size is lowered here until a three-row delta fans out (diff_test.go's
// 4 would still leave every seed inline), and the plain closure seed must
// actually reach the pool.
func FuzzParallelStream(f *testing.F) {
	for _, s := range workload.EvalFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		defer func(old int) { parMinChunk = old }(parMinChunk)
		parMinChunk = 1
		u, err := parser.Parse(src)
		if err != nil {
			return
		}
		var streams [2]string
		var poolRounds int
		for i, par := range []int{1, 4} {
			sys, err := LoadSystem(src)
			if err != nil {
				return
			}
			sys.Parallelism = par
			v := sys.NewView(nil)
			v.Budget = Budget{Timeout: 200 * time.Millisecond, MaxFacts: 5000, MaxIterations: 500}
			var b strings.Builder
			for _, q := range u.Queries {
				_, facts, stats, err := v.Query(q.Body)
				if err != nil {
					return
				}
				for _, fact := range facts {
					b.WriteString(fact.String())
					b.WriteByte('\n')
				}
				b.WriteString("--\n")
				poolRounds += stats.ParallelRounds // only the 4-arm has any
			}
			streams[i] = b.String()
		}
		if streams[0] != streams[1] {
			t.Fatalf("Parallelism 4 changed the answer stream\n1:\n%s\n4:\n%s", streams[0], streams[1])
		}
		if src == workload.TCFuzzSeed && poolRounds == 0 {
			t.Fatal("the closure seed ran no round on the worker pool: the cross-check compared inline with inline")
		}
	})
}
