package main

// Seeded input generation. --seed is the only source of randomness: every
// graph, fact stream and operation schedule is a pure function of (seed,
// sizes), and the program under test is handed only those.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"
	"strings"
)

// newRand derives an independent stream per (seed, purpose), so adding an
// operation to one workload does not shift another workload's inputs.
func newRand(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream)))
}

func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

// parseFacts reads the integer arguments of each "pred(a, b[, c])." line
// the internal/workload generators write. The harness parses them itself,
// so reference answers do not pass through the program's parser.
func parseFacts(text string) [][]int {
	var out [][]int
	for _, line := range strings.Split(text, "\n") {
		open, shut := strings.IndexByte(line, '('), strings.IndexByte(line, ')')
		if open < 0 || shut < open {
			continue
		}
		fields := strings.Split(line[open+1:shut], ",")
		row := make([]int, len(fields))
		for i, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				panic("bench: generated fact is not integer-valued: " + line)
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out
}

// zipfNodes draws node ids with Zipf(1.1) popularity; which node holds
// which rank is a seeded permutation.
func zipfNodes(r *rand.Rand, n int) func() int {
	perm := r.Perm(n)
	z := rand.NewZipf(r, 1.1, 1, uint64(n-1))
	return func() int { return perm[z.Uint64()] }
}

// hashOf fingerprints everything the program will be handed.
func hashOf(write func(w io.Writer)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
