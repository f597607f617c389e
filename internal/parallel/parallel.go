// Package parallel defines hybrid parallel configurations and their
// spatial layout on the wafer die grid — the coordinate-based unified
// parallelism representation of §VI-A (Fig. 10). A configuration
// assigns a degree to every strategy (DP, TP, SP, CP, TATP, with PP
// reserved for inter-wafer staging), and a Placement maps the
// resulting logical coordinates onto physical dies such that the
// innermost strategy groups occupy contiguous rectangles — the
// property TATP's topology-aware orchestration depends on (§V).
package parallel

import (
	"fmt"
	"sort"

	"temp/internal/mesh"
)

// Strategy enumerates the parallel dimensions TEMP composes.
type Strategy int

// Strategies, ordered innermost (most locality-sensitive) first.
const (
	TATP Strategy = iota
	TP
	SP
	CP
	DP
	numStrategies
)

// NumStrategies is the number of intra-wafer strategies — the size of
// a per-strategy lookup array indexed by Strategy.
const NumStrategies = int(numStrategies)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case TATP:
		return "TATP"
	case TP:
		return "TP"
	case SP:
		return "SP"
	case CP:
		return "CP"
	case DP:
		return "DP"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all intra-wafer strategies innermost-first.
func Strategies() []Strategy { return []Strategy{TATP, TP, SP, CP, DP} }

// Config is a hybrid parallel configuration. Every degree is ≥ 1;
// the product of intra-wafer degrees must equal the number of dies a
// placement covers. PP is the pipeline degree across wafers.
type Config struct {
	DP, TP, SP, CP, TATP int
	// PP is pipeline parallelism across wafers (§VIII-E); 1 for
	// single-wafer runs.
	PP int
	// FSDP marks DP as fully-sharded data parallelism: weights and
	// optimizer state are sharded across the DP group and gathered
	// on demand, trading memory for all-gather traffic.
	FSDP bool
	// MegatronSP marks Megatron-3-style sequence parallelism where
	// the SP degree is fused with TP (activations sequence-split in
	// non-TP regions, all-gather/reduce-scatter around TP blocks).
	MegatronSP bool
}

// Normalize returns a copy with zero degrees promoted to 1.
func (c Config) Normalize() Config {
	if c.DP < 1 {
		c.DP = 1
	}
	if c.TP < 1 {
		c.TP = 1
	}
	if c.SP < 1 {
		c.SP = 1
	}
	if c.CP < 1 {
		c.CP = 1
	}
	if c.TATP < 1 {
		c.TATP = 1
	}
	if c.PP < 1 {
		c.PP = 1
	}
	return c
}

// Degree returns the intra-wafer degree product.
func (c Config) Degree() int {
	c = c.Normalize()
	return c.DP * c.TP * c.SP * c.CP * c.TATP
}

// DegreeOf returns the degree of one strategy.
func (c Config) DegreeOf(s Strategy) int {
	c = c.Normalize()
	switch s {
	case DP:
		return c.DP
	case TP:
		return c.TP
	case SP:
		return c.SP
	case CP:
		return c.CP
	case TATP:
		return c.TATP
	default:
		return 1
	}
}

// String renders the (DP, TP, SP, TATP) tuple notation of Fig. 18,
// extended with CP/PP when present.
func (c Config) String() string {
	c = c.Normalize()
	s := fmt.Sprintf("(DP=%d,TP=%d,SP=%d,TATP=%d", c.DP, c.TP, c.SP, c.TATP)
	if c.CP > 1 {
		s += fmt.Sprintf(",CP=%d", c.CP)
	}
	if c.PP > 1 {
		s += fmt.Sprintf(",PP=%d", c.PP)
	}
	if c.FSDP {
		s += ",FSDP"
	}
	return s + ")"
}

// Validate checks the configuration against a die budget.
func (c Config) Validate(dies int) error {
	n := c.Normalize()
	if d := n.Degree(); d != dies {
		return fmt.Errorf("parallel: degree product %d ≠ %d dies", d, dies)
	}
	return nil
}

// WeightShardWays returns how many ways weight tensors are sharded
// across the wafer: TP and TATP split weights; FSDP additionally
// shards storage across the DP group.
func (c Config) WeightShardWays() int {
	c = c.Normalize()
	w := c.TP * c.TATP
	if c.FSDP {
		w *= c.DP
	}
	return w
}

// WeightReplicas returns how many dies hold each weight shard:
// everything that is not a weight-sharding dimension replicates it.
func (c Config) WeightReplicas() int {
	c = c.Normalize()
	r := c.SP * c.CP
	if !c.FSDP {
		r *= c.DP
	}
	return r
}

// ActShardWays returns how many ways activations are sharded: DP
// splits batch, SP/CP split sequence, TATP stream-splits sequence.
// Megatron-style TP without SP leaves activations whole on every TP
// rank.
func (c Config) ActShardWays() int {
	c = c.Normalize()
	w := c.DP * c.SP * c.CP * c.TATP
	if c.MegatronSP {
		// Megatron-3 SP additionally sequence-splits the non-TP
		// regions across the TP group.
		w *= c.TP
	}
	return w
}

// ActReplicas returns how many dies hold each activation shard.
func (c Config) ActReplicas() int {
	c = c.Normalize()
	if c.MegatronSP {
		return 1
	}
	return c.TP
}

// Group is one communication group of a strategy: the dies that
// exchange data for it, listed in logical ring/chain order.
type Group struct {
	Strategy Strategy
	// Dies in logical order (ring order when Contig is a
	// ring-capable rectangle).
	Dies []mesh.DieID
	// Rect is the bounding rectangle when the group is a contiguous
	// block; nil otherwise.
	Rect *mesh.Rect
}

// Size returns the group cardinality.
func (g Group) Size() int { return len(g.Dies) }

// Contiguous reports whether the group occupies a full rectangle.
func (g Group) Contiguous() bool { return g.Rect != nil }

// Placement maps logical parallel coordinates to physical dies.
type Placement struct {
	Cfg  Config
	Topo *mesh.Topology

	// factors[s] is the (rows, cols) tile factor chosen for s.
	factors [numStrategies][2]int
	// strides[s] is the physical (row, col) stride of one step
	// along s's logical axis block.
	blockH, blockW [numStrategies]int

	// linear marks the SMap-style row-major linear assignment that
	// ignores the 2D structure of the wafer.
	linear bool

	groups map[Strategy][]Group
}

// Groups returns the communication groups of strategy s.
func (p *Placement) Groups(s Strategy) []Group { return p.groups[s] }

// AllGroups returns every group of every active (>1 degree) strategy.
func (p *Placement) AllGroups() []Group {
	var out []Group
	for _, s := range Strategies() {
		if p.Cfg.DegreeOf(s) > 1 {
			out = append(out, p.groups[s]...)
		}
	}
	return out
}

// DieAt returns the physical die at the given logical coordinates
// (index per strategy).
func (p *Placement) DieAt(coord map[Strategy]int) mesh.DieID {
	if p.linear {
		// SMap layout: flatten logical coordinates in fixed
		// outermost-first priority (DP slowest, TATP fastest) onto
		// row-major die IDs, with no awareness of the grid's second
		// dimension.
		idx := 0
		for _, s := range []Strategy{DP, CP, SP, TP, TATP} {
			idx = idx*p.Cfg.DegreeOf(s) + coord[s]
		}
		return mesh.DieID(idx)
	}
	r, c := 0, 0
	for _, s := range Strategies() {
		i := coord[s]
		fh, fw := p.factors[s][0], p.factors[s][1]
		if fh*fw == 0 {
			continue
		}
		ih, iw := i/fw, i%fw
		r += ih * p.blockH[s]
		c += iw * p.blockW[s]
	}
	return p.Topo.ID(mesh.Coord{R: r, C: c})
}

// chooseFactor picks (fh, fw) with fh·fw = d, fh dividing maxH and fw
// dividing maxW. For ring-seeking strategies it prefers ring-capable
// rectangles (both sides ≥ 2, even area), then chains, then the most
// compact remaining option. Returns ok=false when d does not fit.
func chooseFactor(d, maxH, maxW int, preferRing bool) (fh, fw int, ok bool) {
	type cand struct {
		h, w  int
		score int
	}
	var cands []cand
	for h := 1; h <= d; h++ {
		if d%h != 0 {
			continue
		}
		w := d / h
		if h > maxH || w > maxW {
			continue
		}
		if maxH%h != 0 || maxW%w != 0 {
			continue
		}
		score := 0
		r := mesh.Rect{R0: 0, C0: 0, R1: h - 1, C1: w - 1}
		if preferRing {
			if r.HasRing() {
				score -= 1000
			}
			// Among ring candidates prefer the flattest (2×k keeps
			// every hop short and leaves room for outer strategies).
			score += h * 10
		}
		// Compactness: prefer balanced blocks for collectives.
		if !preferRing {
			score += (h - w) * (h - w)
		}
		cands = append(cands, cand{h, w, score})
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		if cands[i].h != cands[j].h {
			return cands[i].h < cands[j].h
		}
		return cands[i].w < cands[j].w
	})
	return cands[0].h, cands[0].w, true
}

// Place computes a placement of cfg on the topology. The intra-wafer
// degree product must equal the die count. Strategies are laid out
// innermost-first (TATP → TP → SP → CP → DP) so the TATP groups land
// on contiguous, ring-capable rectangles whenever one exists.
func Place(cfg Config, topo *mesh.Topology) (*Placement, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(topo.Dies()); err != nil {
		return nil, err
	}
	p := &Placement{Cfg: cfg, Topo: topo, groups: make(map[Strategy][]Group)}
	bh, bw := 1, 1 // dies covered by the current block
	remH, remW := topo.Rows(), topo.Cols()
	for _, s := range Strategies() {
		d := cfg.DegreeOf(s)
		p.blockH[s], p.blockW[s] = bh, bw
		if d == 1 {
			p.factors[s] = [2]int{1, 1}
			continue
		}
		fh, fw, ok := chooseFactor(d, remH, remW, s == TATP)
		if !ok {
			return nil, fmt.Errorf("parallel: cannot tile %s degree %d into remaining %dx%d blocks (%s)",
				s, d, remH, remW, cfg)
		}
		p.factors[s] = [2]int{fh, fw}
		bh *= fh
		bw *= fw
		remH /= fh
		remW /= fw
	}
	p.buildGroups()
	return p, nil
}

// PlaceLinear computes the SMap-style placement: logical coordinates
// are flattened in a fixed priority order (TATP varying fastest) onto
// row-major die indices, exactly the "sequential mapper with a fixed
// parallel strategy order" baseline of §VIII-A. Inner groups become
// horizontal runs that wrap across row boundaries into non-contiguous
// tetris shapes — the tail-latency failure mode of Fig. 7(a).
func PlaceLinear(cfg Config, topo *mesh.Topology) (*Placement, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(topo.Dies()); err != nil {
		return nil, err
	}
	p := &Placement{Cfg: cfg, Topo: topo, linear: true, groups: make(map[Strategy][]Group)}
	p.buildGroups()
	return p, nil
}

// buildGroups enumerates the communication groups of each strategy.
func (p *Placement) buildGroups() {
	cfg := p.Cfg
	strategies := Strategies()
	for _, s := range strategies {
		d := cfg.DegreeOf(s)
		if d <= 1 {
			continue
		}
		others := make([]Strategy, 0, len(strategies)-1)
		for _, o := range strategies {
			if o != s {
				others = append(others, o)
			}
		}
		var groups []Group
		var walk func(level int, coord map[Strategy]int)
		walk = func(level int, coord map[Strategy]int) {
			if level == len(others) {
				g := Group{Strategy: s}
				for i := 0; i < d; i++ {
					coord[s] = i
					g.Dies = append(g.Dies, p.DieAt(coord))
				}
				coord[s] = 0
				g.Rect = boundingRectIfFull(p.Topo, g.Dies)
				groups = append(groups, g)
				return
			}
			o := others[level]
			for i := 0; i < cfg.DegreeOf(o); i++ {
				coord[o] = i
				walk(level+1, coord)
			}
			coord[o] = 0
		}
		walk(0, map[Strategy]int{})
		p.groups[s] = groups
	}
}

// boundingRectIfFull returns the bounding rectangle of the dies when
// they exactly fill it, else nil.
func boundingRectIfFull(t *mesh.Topology, dies []mesh.DieID) *mesh.Rect {
	if len(dies) == 0 {
		return nil
	}
	r := mesh.Rect{R0: 1 << 30, C0: 1 << 30, R1: -1, C1: -1}
	seen := make(map[mesh.DieID]bool, len(dies))
	for _, d := range dies {
		if seen[d] {
			return nil
		}
		seen[d] = true
		c := t.CoordOf(d)
		if c.R < r.R0 {
			r.R0 = c.R
		}
		if c.R > r.R1 {
			r.R1 = c.R
		}
		if c.C < r.C0 {
			r.C0 = c.C
		}
		if c.C > r.C1 {
			r.C1 = c.C
		}
	}
	if r.Area() != len(dies) {
		return nil
	}
	return &r
}

// EnumerateConfigs lists every hybrid configuration whose intra-wafer
// degree product equals dies, with degrees restricted to powers of
// two (the paper's search space, Fig. 17/18) and optional strategy
// caps. maxTATP of 0 means unbounded.
func EnumerateConfigs(dies int, allowTATP bool, maxTATP int) []Config {
	var out []Config
	for dp := 1; dp <= dies; dp *= 2 {
		if dies%dp != 0 {
			continue
		}
		for tp := 1; dp*tp <= dies; tp *= 2 {
			if dies%(dp*tp) != 0 {
				continue
			}
			for sp := 1; dp*tp*sp <= dies; sp *= 2 {
				if dies%(dp*tp*sp) != 0 {
					continue
				}
				tatp := dies / (dp * tp * sp)
				if tatp&(tatp-1) != 0 {
					continue // keep power-of-two degrees
				}
				if !allowTATP && tatp > 1 {
					continue
				}
				if maxTATP > 0 && tatp > maxTATP {
					continue
				}
				out = append(out, Config{DP: dp, TP: tp, SP: sp, TATP: tatp, CP: 1, PP: 1})
			}
		}
	}
	return out
}
