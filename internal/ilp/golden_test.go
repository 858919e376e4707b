package ilp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/multi"
)

// modelCases lists every instance the package tests assemble a model for,
// the paper example at (1, 1, 5, 5) first.
func modelCases() []struct {
	name string
	g    *dag.Graph
	p    multi.Platform
} {
	single := dag.New()
	single.AddTask("only", 5, 2)
	fork := dag.New()
	a := fork.AddTask("a", 1, 1)
	b := fork.AddTask("b", 2, 2)
	c := fork.AddTask("c", 2, 2)
	fork.MustAddEdge(a, b, 1, 1)
	fork.MustAddEdge(a, c, 1, 1)
	return []struct {
		name string
		g    *dag.Graph
		p    multi.Platform
	}{
		{"paper-1-1-5-5", dag.PaperExample(), multi.DualPlatform(1, 1, 5, 5)},
		{"paper-1-1-100-100", dag.PaperExample(), multi.DualPlatform(1, 1, 100, 100)},
		{"single-1-1-1-1", single, multi.DualPlatform(1, 1, 1, 1)},
		{"faster-memory", twoChain(1, 10, 2, 10, 1, 5), multi.DualPlatform(1, 1, 10, 10)},
		{"cross-memory", twoChain(1, 10, 10, 1, 2, 3), multi.DualPlatform(1, 1, 10, 10)},
		{"memory-bound", twoChain(1, 10, 10, 1, 2, 3), multi.DualPlatform(1, 1, 10, 1)},
		{"no-memory-fits", twoChain(1, 1, 1, 1, 5, 1), multi.DualPlatform(1, 1, 2, 2)},
		{"fork", fork, multi.DualPlatform(1, 1, 10, 10)},
		{"exact-a", twoChain(2, 3, 4, 1, 1, 2), multi.DualPlatform(1, 1, 10, 10)},
		{"exact-b", twoChain(3, 1, 1, 3, 2, 1), multi.DualPlatform(1, 1, 10, 10)},
		{"never-worse", twoChain(2, 2, 3, 3, 2, 1), multi.DualPlatform(1, 1, 4, 4)},
		{"decode-blue-only", twoChain(1, 1, 1, 1, 1, 1), multi.DualPlatform(1, 0, 10, 10)},
	}
}

// modelGolden holds, per case, the SHA-256 of the assembled model recorded
// before the ILP moved onto the k-pool types: any change to a variable, a
// row, a coefficient bit, the integers or the horizon changes the search.
var modelGolden = map[string]string{
	"paper-1-1-5-5":     "e87e0c21d512b6ae950662fe4d3b3cfb0c60100fea678571ec40a693868ce419",
	"paper-1-1-100-100": "673b80045861f625271742beb3ee80266d4962012a3d323ad4ddc24f9059bd23",
	"single-1-1-1-1":    "baa2e2b336390851111c6ee1a7fe8481fab270e4f9fcc9b2c77b8eee7b5cc203",
	"faster-memory":     "36aca8dabf88612d2d1a395f041f6472b3c455d55112d797a454b0433b089f59",
	"cross-memory":      "f880eb5bd2bdde19d93988c8740d394161d8319c6a42a2e8bafed854d711dde2",
	"memory-bound":      "471a5313e67e3e4b86524b233d115e524b5a343f653717a18427fdb7fc94b4a8",
	"no-memory-fits":    "700d9ff795ce459edf62aaa3d7ab4d6cc98d7efd8586d0c4a44b4394ab801ec4",
	"fork":              "fe5aba8e0f4bebd213f0703d00ca747b6e87e9c6b3bf2bb598a200ee27a7d4c0",
	"exact-a":           "fd9b8a1e3cc23537f2e299fde0b4ccecd682519ffb45c4baf412ae8b87586c0c",
	"exact-b":           "44d2f2fbecdc4b6106bf3210990b9a8b183355aababce06588f1e8c3578264c9",
	"never-worse":       "1514cbdd3fa4c4d86528b24e541a19b434cb42fa25ae6ca5b1cb994c3e894a6e",
	"decode-blue-only":  "7bab5c32dfa30f1975c792de2d5432e18506c01615b632af88cb73dfc5c95efc",
}

// modelDigest hashes everything the branch and bound sees of a model: the
// variable count, the objective, every row's coefficients in variable
// order with its sense and right-hand side, the integer variables, the
// per-family row counts and the horizon, floats as their bits.
func modelDigest(md *Model) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(uint64(md.LP.NumVars))
	put(uint64(len(md.LP.Objective)))
	for _, c := range md.LP.Objective {
		putF(c)
	}
	put(uint64(len(md.LP.Constraints)))
	for _, row := range md.LP.Constraints {
		vars := make([]int, 0, len(row.Coeffs))
		for v := range row.Coeffs {
			vars = append(vars, v)
		}
		slices.Sort(vars)
		put(uint64(len(vars)))
		for _, v := range vars {
			put(uint64(v))
			putF(row.Coeffs[v])
		}
		put(uint64(row.Sense))
		putF(row.RHS)
	}
	put(uint64(len(md.Ints)))
	for _, v := range md.Ints {
		put(uint64(v))
	}
	families := make([]string, 0, len(md.rows))
	for f := range md.rows {
		families = append(families, f)
	}
	slices.Sort(families)
	for _, f := range families {
		h.Write([]byte(f))
		put(uint64(md.rows[f]))
	}
	putF(md.Mmax)
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelGolden pins the assembled model of every case bit for bit, so
// a refactor of Build provably hands the solver the same search.
func TestModelGolden(t *testing.T) {
	for _, tc := range modelCases() {
		md, err := Build(multi.FromDual(tc.g), tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := modelDigest(md)
		if want, ok := modelGolden[tc.name]; !ok || got != want {
			t.Errorf("%s: model digest %s, recorded %q", tc.name, got, want)
		}
	}
}
