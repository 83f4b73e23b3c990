// Package derand makes Theorem 3 executable on instances small enough to
// enumerate. The theorem converts any RandLOCAL algorithm A_Rand for an LCL
// into a DetLOCAL algorithm by fixing the random bits: each vertex's bit
// string becomes φ(ID(v)) for a function φ chosen so that the resulting
// deterministic algorithm A_Det[φ] errs on NO member of G_{n,Δ}, the set of
// all n-vertex, max-degree-Δ graphs with unique IDs. The union bound shows
// a good φ exists whenever A_Rand's failure probability is below
// 1/|G_{n,Δ}| — the paper takes failure 1/N with N = 2^{n²} ≫ |G_{n,Δ}|.
//
// Here every object of that proof is materialized:
//
//   - EnumerateInstances lists G_{n,Δ} for tiny n (all edge subsets with
//     the degree bound × all injective ID assignments);
//   - ExactFailure computes an algorithm's failure probability on an
//     instance *exactly*, by enumerating all joint random-bit assignments;
//   - SearchPhi scans bit functions φ in lexicographic order (exhaustively
//     for tiny bit budgets, or until the first good one) and verifies that
//     A_Det[φ*] errs on zero instances — the theorem's conclusion, checked
//     mechanically rather than asymptotically.
//
// The demonstration algorithm is greedy MIS by random priority: each
// vertex draws B random bits and the greedy order they induce is executed
// distributedly. It fails exactly when an adjacent pair draws equal words
// and neither is eliminated by a third joiner — so more bits mean smaller
// failure probability and more abundant good φ's, the tradeoff the
// theorem's union bound quantifies; any φ injective on the ID space is
// good, and the lexicographic search finds the first one.
package derand

import (
	"fmt"
	"math"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/lcl"
	"locality/internal/sim"
)

// Instance is one member of G_{n,Δ}: a labeled graph plus unique IDs.
type Instance struct {
	G   *graph.Graph
	IDs ids.Assignment
}

// EnumerateInstances lists all graphs on n vertices with maximum degree at
// most maxDeg, each combined with every injective ID assignment from
// {1..idSpace}. It panics for n > 5 (the enumeration is exponential; the
// theorem's demonstration lives at tiny n by design).
func EnumerateInstances(n, maxDeg, idSpace int) []Instance {
	if n > 5 {
		panic(fmt.Sprintf("derand: EnumerateInstances(n=%d) is intractable; use n <= 5", n))
	}
	if idSpace < n {
		panic(fmt.Sprintf("derand: idSpace %d < n %d cannot give unique IDs", idSpace, n))
	}
	// All vertex pairs.
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	var graphs []*graph.Graph
	for mask := 0; mask < 1<<len(pairs); mask++ {
		b := graph.NewBuilder(n)
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				b.AddEdge(p[0], p[1])
			}
		}
		g := b.MustBuild()
		if g.MaxDegree() <= maxDeg {
			graphs = append(graphs, g)
		}
	}
	assignments := injections(n, idSpace)
	instances := make([]Instance, 0, len(graphs)*len(assignments))
	for _, g := range graphs {
		for _, a := range assignments {
			instances = append(instances, Instance{G: g, IDs: a})
		}
	}
	return instances
}

// injections enumerates all injective maps [n] -> {1..space}.
func injections(n, space int) []ids.Assignment {
	var out []ids.Assignment
	cur := make(ids.Assignment, n)
	used := make([]bool, space+1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			out = append(out, append(ids.Assignment(nil), cur...))
			return
		}
		for id := 1; id <= space; id++ {
			if used[id] {
				continue
			}
			used[id] = true
			cur[i] = uint64(id)
			rec(i + 1)
			used[id] = false
		}
	}
	rec(0)
	return out
}

// Algorithm is a bit-string-driven algorithm in the sense of the theorem:
// each vertex consumes exactly Bits random bits, delivered through
// Env.Input as a BitInput; the machine itself is deterministic.
type Algorithm struct {
	// Bits is r(n,Δ): the per-vertex random bit budget.
	Bits int
	// Factory builds the per-node machine.
	Factory sim.Factory
	// Validate judges the outputs on an instance (nil error = solved).
	Validate func(inst Instance, outputs []any) error
}

// BitInput carries a vertex's fixed bit string (low bits of Word).
type BitInput struct {
	Word uint64
}

// runWithBits executes the algorithm with the given per-vertex bit words.
func runWithBits(alg Algorithm, inst Instance, words []uint64) ([]any, error) {
	inputs := make([]any, inst.G.N())
	for v := range inputs {
		inputs[v] = BitInput{Word: words[v]}
	}
	res, err := sim.Run(inst.G, sim.Config{IDs: inst.IDs, Inputs: inputs}, alg.Factory)
	if err != nil {
		return nil, err
	}
	return res.Outputs, nil
}

// ExactFailure computes the algorithm's exact failure probability on the
// instance under independent uniform bit strings, by enumerating all
// 2^(Bits·n) joint assignments. Panics if that exceeds 2^24 cases.
func ExactFailure(alg Algorithm, inst Instance) float64 {
	n := inst.G.N()
	total := alg.Bits * n
	if total > 24 {
		panic(fmt.Sprintf("derand: ExactFailure over 2^%d assignments is intractable", total))
	}
	fails := 0
	words := make([]uint64, n)
	mask := uint64(1)<<alg.Bits - 1
	for joint := uint64(0); joint < 1<<total; joint++ {
		x := joint
		for v := 0; v < n; v++ {
			words[v] = x & mask
			x >>= alg.Bits
		}
		outputs, err := runWithBits(alg, inst, words)
		if err != nil {
			panic(fmt.Sprintf("derand: run failed: %v", err))
		}
		if alg.Validate(inst, outputs) != nil {
			fails++
		}
	}
	return float64(fails) / float64(uint64(1)<<total)
}

// Phi is a bit function φ: ID -> bit word; index 0 is unused (IDs are
// 1-based).
type Phi []uint64

// applyPhi runs A_Det[φ] on the instance.
func applyPhi(alg Algorithm, inst Instance, phi Phi) ([]any, error) {
	words := make([]uint64, inst.G.N())
	for v, id := range inst.IDs {
		words[v] = phi[id]
	}
	return runWithBits(alg, inst, words)
}

// IsGood reports whether A_Det[φ] solves EVERY instance.
func IsGood(alg Algorithm, instances []Instance, phi Phi) bool {
	for _, inst := range instances {
		outputs, err := applyPhi(alg, inst, phi)
		if err != nil {
			return false
		}
		if alg.Validate(inst, outputs) != nil {
			return false
		}
	}
	return true
}

// SearchResult reports a φ search.
type SearchResult struct {
	// Found is the lexicographically first good φ (nil if none in range).
	Found Phi
	// Tried counts the φ candidates examined.
	Tried int
	// Exhausted is true when the whole φ space was scanned.
	Exhausted bool
	// BadCount counts bad φ's among those examined (meaningful when
	// Exhausted).
	BadCount int
}

// SearchPhi scans φ candidates in lexicographic order. With idSpace·Bits
// small enough (≤ maxScan budget) it scans the whole space and reports the
// exact bad fraction; otherwise it stops at the first good φ.
func SearchPhi(alg Algorithm, instances []Instance, idSpace, maxScan int) SearchResult {
	bitsTotal := idSpace * alg.Bits
	var spaceSize uint64
	exhaustive := bitsTotal <= 30
	if exhaustive {
		spaceSize = uint64(1) << bitsTotal
		if spaceSize > uint64(maxScan) {
			exhaustive = false
		}
	}
	res := SearchResult{Exhausted: exhaustive}
	mask := uint64(1)<<alg.Bits - 1
	decode := func(x uint64) Phi {
		phi := make(Phi, idSpace+1)
		for id := 1; id <= idSpace; id++ {
			phi[id] = x & mask
			x >>= alg.Bits
		}
		return phi
	}
	limit := uint64(maxScan)
	if exhaustive {
		limit = spaceSize
	}
	for x := uint64(0); x < limit; x++ {
		phi := decode(x)
		res.Tried++
		if IsGood(alg, instances, phi) {
			if res.Found == nil {
				res.Found = phi
			}
			if !exhaustive {
				return res
			}
		} else {
			res.BadCount++
		}
	}
	return res
}

// PriorityMIS returns the demonstration algorithm: iterated greedy MIS by
// bit-word priority. Each phase, an undecided vertex joins if its word
// strictly beats every undecided neighbor's, and drops out next to a
// joiner. With pairwise-distinct words along every edge the greedy order
// completes within n phases; the only failure mode is a blocking adjacent
// tie — whose probability shrinks as bits grow, and which a good φ (in
// particular any φ injective on the ID space) eliminates entirely.
func PriorityMIS(bits int) Algorithm {
	return Algorithm{
		Bits: bits,
		Factory: func() sim.Machine {
			return &prioMIS{}
		},
		Validate: func(inst Instance, outputs []any) error {
			labels := make([]any, len(outputs))
			copy(labels, outputs)
			return lcl.MIS().Validate(lcl.Instance{G: inst.G}, labels)
		},
	}
}

type prioMIS struct {
	env  sim.Env
	word uint64
	st   int           // 0 undecided, 1 in, 2 out
	send []sim.Message // reused priority broadcast
}

var _ sim.Machine = (*prioMIS)(nil)

// prioMsg is the per-phase broadcast.
type prioMsg struct {
	Word uint64
	St   int
}

func (m *prioMIS) Init(env sim.Env) {
	m.env = env
	bi, ok := env.Input.(BitInput)
	if !ok {
		panic(fmt.Sprintf("derand: input is %T, want BitInput", env.Input))
	}
	m.word = bi.Word
}

func (m *prioMIS) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if m.st == 0 && step > 1 {
		beaten := false
		for _, msg := range recv {
			if msg == nil {
				continue
			}
			pm := msg.(prioMsg)
			switch {
			case pm.St == 1:
				m.st = 2
			case pm.St == 0 && pm.Word >= m.word:
				beaten = true
			}
		}
		if m.st == 0 && !beaten {
			m.st = 1
		}
	}
	if step > m.env.N+2 || m.st != 0 && step > 1 {
		// Decided vertices announce once more and halt; the budget bound
		// n+2 guarantees termination even with blocking ties (the stuck
		// vertices output "undecided" = out, and the verifier reports the
		// maximality violation).
		return sim.BroadcastInto(&m.send, m.env.Degree, prioMsg{Word: m.word, St: m.st}), true
	}
	return sim.BroadcastInto(&m.send, m.env.Degree, prioMsg{Word: m.word, St: m.st}), false
}

func (m *prioMIS) Output() any { return m.st == 1 }

// Corollary1Overhead quantifies Corollary 1: derandomizing via Theorem 3
// evaluates the randomized algorithm at N = 2^(n²) instead of n, so a
// 2^O(log* n)-time algorithm pays only the additive difference
// log*(2^(n²)) - log*(n) <= 2 — no asymptotic penalty. The function returns
// that difference for a given n (as a float argument to allow huge n).
func Corollary1Overhead(n float64) int {
	if n < 1 {
		panic("derand: Corollary1Overhead needs n >= 1")
	}
	// log2(N) = n², so log*(N) = 1 + log*(n²) = 1 + log*(2·log2 n) steps
	// beyond... compute directly: iterate log2 starting from n² in the
	// exponent: log*(2^(n²)) = 1 + log*(n²).
	logStarN := logStar(n)
	logStarBig := 1 + logStar(n*n)
	return logStarBig - logStarN
}

func logStar(x float64) int {
	if math.IsInf(x, 1) {
		// One extra log2 level beyond the largest finite float64: treat
		// Inf as 2^1024 (this only affects the overhead bound, which is
		// insensitive to a single level at these magnitudes).
		return 1 + logStar(1024)
	}
	count := 0
	for x > 1 {
		x = math.Log2(x)
		count++
	}
	return count
}
