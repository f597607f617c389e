package solver

import (
	"sync/atomic"

	"temp/internal/engine"
)

// soaPop is the GA population in structure-of-arrays form: one flat
// genes buffer plus, per position, the memoized cost terms the chain
// objective sums — intraCost+penalty per gene and the coupling inter
// term per adjacent pair. Children inherit their parents' term values
// through crossover, so a generation re-prices only the terms its
// variation actually invalidated: the crossover boundary's inter term
// and the ≤3 terms around each mutated gene. Everything else is a
// plain float read instead of a term-table lookup, and the genuinely new
// (position, config) keys — collected serially, deduplicated, then
// priced in parallel — are exactly the keys a full per-individual
// walk would have priced, so the evaluation count and every cost are
// bit-identical to the pre-delta GA at any worker count.
//
// All buffers are allocated once and ping-ponged between generations;
// the steady-state generation loop does not allocate.
type soaPop struct {
	ev  *evaluator
	n   int // genes per individual
	pop int // individuals

	// Current generation (indexed [i*n+j]) and its per-row costs.
	genes    []int
	intraPen []float64
	inter    []float64 // inter[i*n] unused (always 0)
	costs    []float64

	// Next generation being bred, with per-position dirty marks.
	nextGenes    []int
	nextIntraPen []float64
	nextInter    []float64
	dirtyIntra   []bool
	dirtyInter   []bool

	// Deduplicated missing-key lists of one pricing round. The seen
	// arrays parallel the evaluator's term tables: a cell holding the
	// current round was visited this round, so nothing is cleared
	// between rounds.
	missIntra [][2]int
	missInter [][3]int
	missMem   []int
	seenIntra []uint32
	seenInter []uint32
	seenMem   []uint32
	round     uint32
}

func newSoaPop(ev *evaluator, pop, n int) *soaPop {
	return &soaPop{
		ev: ev, n: n, pop: pop,
		genes:        make([]int, pop*n),
		intraPen:     make([]float64, pop*n),
		inter:        make([]float64, pop*n),
		costs:        make([]float64, pop),
		nextGenes:    make([]int, pop*n),
		nextIntraPen: make([]float64, pop*n),
		nextInter:    make([]float64, pop*n),
		dirtyIntra:   make([]bool, pop*n),
		dirtyInter:   make([]bool, pop*n),
		seenIntra:    make([]uint32, len(ev.intra)),
		seenInter:    make([]uint32, len(ev.inter)),
		seenMem:      make([]uint32, len(ev.mem)),
	}
}

// row returns the genes of individual i in the current generation.
func (s *soaPop) row(i int) []int { return s.genes[i*s.n : (i+1)*s.n] }

// markAllDirty marks every term of the next buffers for repricing —
// the initial population, whose terms have no parents to inherit
// from.
func (s *soaPop) markAllDirty() {
	for k := range s.dirtyIntra {
		s.dirtyIntra[k] = true
		s.dirtyInter[k] = true
	}
}

// swap promotes the next buffers to current.
func (s *soaPop) swap() {
	s.genes, s.nextGenes = s.nextGenes, s.genes
	s.intraPen, s.nextIntraPen = s.nextIntraPen, s.intraPen
	s.inter, s.nextInter = s.nextInter, s.inter
}

// price promotes the bred next generation and refreshes its costs:
// missing cost-model keys under dirty terms are collected serially
// (deterministic dedup), priced in parallel across workers, then every
// dirty term is refreshed from the term tables and each row re-summed
// in assignmentCost's exact left-to-right order.
func (s *soaPop) price(workers int) {
	s.swap()
	ev := s.ev

	// Collect the distinct missing keys under dirty terms. Peeking
	// never computes, so this pass is cheap and adds no evaluations.
	s.missIntra = s.missIntra[:0]
	s.missInter = s.missInter[:0]
	s.missMem = s.missMem[:0]
	s.round++
	if s.round == 0 {
		// The stamp wrapped: stamps from 2^32 rounds ago would alias.
		clear(s.seenIntra)
		clear(s.seenInter)
		clear(s.seenMem)
		s.round = 1
	}
	for i := 0; i < s.pop; i++ {
		base := i * s.n
		for j := 0; j < s.n; j++ {
			if s.dirtyIntra[base+j] {
				cfg := s.genes[base+j]
				if k := ev.intraIdx(j, cfg); s.seenIntra[k] != s.round {
					s.seenIntra[k] = s.round
					if _, ok := peek(&ev.intra[k]); !ok {
						s.missIntra = append(s.missIntra, [2]int{j, cfg})
					}
				}
				if s.seenMem[cfg] != s.round {
					s.seenMem[cfg] = s.round
					if _, ok := peek(&ev.mem[cfg]); !ok {
						s.missMem = append(s.missMem, cfg)
					}
				}
			}
			if j > 0 && s.dirtyInter[base+j] {
				a, b := s.genes[base+j-1], s.genes[base+j]
				if k := ev.interIdx(j, a, b); s.seenInter[k] != s.round {
					s.seenInter[k] = s.round
					if _, ok := peek(&ev.inter[k]); !ok {
						s.missInter = append(s.missInter, [3]int{j, a, b})
					}
				}
			}
		}
	}

	// Price the fresh keys in parallel. Keys are distinct, so each
	// cell is filled exactly once and the evaluation count equals the
	// serial count.
	ni, nn := len(s.missIntra), len(s.missInter)
	engine.ForEach(workers, ni+nn+len(s.missMem), func(k int) {
		switch {
		case k < ni:
			ev.intraCost(s.missIntra[k][0], s.missIntra[k][1])
		case k < ni+nn:
			nk := s.missInter[k-ni]
			ev.interCost(nk[0], nk[1], nk[2])
		default:
			ev.memoryOK(s.missMem[k-ni-nn])
		}
	})

	// Refresh dirty terms and re-sum each row in assignmentCost's
	// order; rows are independent. Every key under a dirty term was
	// either already priced or priced by the ForEach above, so this
	// stage is plain table reads: no closures, no allocations.
	engine.ForEach(workers, s.pop, func(i int) {
		base := i * s.n
		var total float64
		for j := 0; j < s.n; j++ {
			if s.dirtyIntra[base+j] {
				cfg := s.genes[base+j]
				pen := 0.0
				if priced(ev.mem, cfg) != 1 {
					pen = oomPenalty
				}
				s.intraPen[base+j] = priced(ev.intra, ev.intraIdx(j, cfg)) + pen
				s.dirtyIntra[base+j] = false
			}
			total += s.intraPen[base+j]
			if j > 0 {
				if s.dirtyInter[base+j] {
					s.inter[base+j] = priced(ev.inter, ev.interIdx(j, s.genes[base+j-1], s.genes[base+j]))
					s.dirtyInter[base+j] = false
				}
				total += s.inter[base+j]
			}
		}
		s.costs[i] = total
	})
}

// priced returns the term in cell i of tab, which the collect pass of
// price has made sure is filled. An unpriced cell there is a bug in
// that pass: summing it would add the sentinel NaN to a cost without
// any error, so it panics instead.
func priced(tab []atomic.Uint64, i int) float64 {
	v, ok := peek(&tab[i])
	if !ok {
		panic("solver: soaPop refresh read an unpriced term")
	}
	return v
}

// breedInto copies parent terms into next row i: genes and terms
// [0,cut) from current row a, [cut,n) from current row b, with the
// coupling term across the cut marked dirty (unknown pair) — the SoA
// form of one-point crossover.
func (s *soaPop) breedInto(i, a, b, cut int) {
	dst, sa, sb := i*s.n, a*s.n, b*s.n
	copy(s.nextGenes[dst:dst+cut], s.genes[sa:sa+cut])
	copy(s.nextGenes[dst+cut:dst+s.n], s.genes[sb+cut:sb+s.n])
	copy(s.nextIntraPen[dst:dst+cut], s.intraPen[sa:sa+cut])
	copy(s.nextIntraPen[dst+cut:dst+s.n], s.intraPen[sb+cut:sb+s.n])
	copy(s.nextInter[dst:dst+cut], s.inter[sa:sa+cut])
	copy(s.nextInter[dst+cut:dst+s.n], s.inter[sb+cut:sb+s.n])
	for j := 0; j < s.n; j++ {
		s.dirtyIntra[dst+j] = false
		s.dirtyInter[dst+j] = false
	}
	if cut > 0 {
		s.dirtyInter[dst+cut] = true
	}
}

// mutateGene applies one mutation to next row i, invalidating the
// gene's own term and both coupling terms.
func (s *soaPop) mutateGene(i, j, cfg int) {
	base := i * s.n
	s.nextGenes[base+j] = cfg
	s.dirtyIntra[base+j] = true
	if j > 0 {
		s.dirtyInter[base+j] = true
	}
	if j+1 < s.n {
		s.dirtyInter[base+j+1] = true
	}
}
