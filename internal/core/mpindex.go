package core

import (
	"errors"
	"fmt"

	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
	"lccs/internal/vec"
)

// MPParams configures an MP-LCCS-LSH index (§4.2).
type MPParams struct {
	Params
	// Probes is the number of probing sequences per query, including
	// the unperturbed one. The paper evaluates
	// #probes ∈ {1, m+1, 2m+1, 4m+1, 8m+1}; Probes = 1 degenerates to
	// single-probe LCCS-LSH.
	Probes int
	// MaxGap bounds the gap between adjacent modified positions in a
	// perturbation vector. The paper sets MAX_GAP = 2 in practice;
	// 0 selects that default.
	MaxGap int
	// MaxAlt bounds the per-position alternative list length. 0 selects
	// a default of 16 (ample: a position is rarely re-perturbed more
	// than a few times before the score outgrows other positions).
	MaxAlt int
}

// DefaultMaxGap is the paper's practical MAX_GAP setting.
const DefaultMaxGap = 2

const defaultMaxAlt = 16

// Validate reports whether the parameters are usable.
func (p MPParams) Validate() error {
	if err := p.Params.Validate(); err != nil {
		return err
	}
	if p.Probes <= 0 {
		return fmt.Errorf("core: Probes must be positive, got %d", p.Probes)
	}
	if p.MaxGap < 0 || p.MaxAlt < 0 {
		return errors.New("core: MaxGap and MaxAlt must be non-negative")
	}
	return nil
}

// MPIndex is a multi-probe LCCS-LSH index. Besides the base index it keeps
// the probing hooks of the LSH functions. It is safe for concurrent
// queries; its per-query scratch rides in the base index's pooled
// searchCtx.
type MPIndex struct {
	*Index
	pfuncs []lshfamily.ProbeFunc
	probes int
	maxGap int
	maxAlt int
}

// BuildMP constructs an MP-LCCS-LSH index over row-slice data. The
// family's hash functions must implement lshfamily.ProbeFunc.
func BuildMP(data [][]float32, family lshfamily.Family, p MPParams) (*MPIndex, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	base, err := Build(data, family, p.Params)
	if err != nil {
		return nil, err
	}
	return WrapMP(base, p)
}

// BuildMPStore is BuildMP over a flat vec.Store.
func BuildMPStore(store *vec.Store, family lshfamily.Family, p MPParams) (*MPIndex, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	base, err := BuildStore(store, family, p.Params)
	if err != nil {
		return nil, err
	}
	return WrapMP(base, p)
}

// WrapMP adds multi-probe querying on top of an existing single-probe
// index (used both by BuildMP and when loading a serialized index). The
// base index's hash functions must implement lshfamily.ProbeFunc.
func WrapMP(base *Index, p MPParams) (*MPIndex, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if base.m != p.M {
		return nil, fmt.Errorf("core: base index has m=%d, params say %d", base.m, p.M)
	}
	pfuncs, ok := lshfamily.ProbeFuncs(base.funcs)
	if !ok {
		return nil, fmt.Errorf("core: family %q does not support multi-probe", base.family.Name())
	}
	mp := &MPIndex{
		Index:  base,
		pfuncs: pfuncs,
		probes: p.Probes,
		maxGap: p.MaxGap,
		maxAlt: p.MaxAlt,
	}
	if mp.maxGap == 0 {
		mp.maxGap = DefaultMaxGap
	}
	if mp.maxAlt == 0 {
		mp.maxAlt = defaultMaxAlt
	}
	return mp, nil
}

// Probes returns the configured number of probing sequences.
func (ix *MPIndex) Probes() int { return ix.probes }

// Search answers a c-k-ANNS query with multi-probe LCCS search: the
// unperturbed λ-LCCS search plus Probes−1 perturbed probes generated by
// Algorithm 3, merged into one candidate stream (deduplicated), verified
// with exact distances.
func (ix *MPIndex) Search(q []float32, k, lambda int) []pqueue.Neighbor {
	res, _ := ix.searchInto(q, k, lambda, nil, nil)
	return res
}

// SearchWithStats is Search plus work counters.
func (ix *MPIndex) SearchWithStats(q []float32, k, lambda int) ([]pqueue.Neighbor, SearchStats) {
	return ix.searchInto(q, k, lambda, nil, nil)
}

// SearchFilterOffsetIntoStats is the shard-local multi-probe query (see
// Index.SearchFilterOffsetIntoStats); the multi-probe candidate stream
// is drained past the ids a non-nil accept rejects exactly like the
// single-probe stream.
func (ix *MPIndex) SearchFilterOffsetIntoStats(q []float32, k, lambda, offset int, accept func(id int) bool, dst []pqueue.Neighbor) ([]pqueue.Neighbor, SearchStats) {
	res, stats := ix.searchInto(q, k, lambda, accept, dst[:0])
	return shiftIDs(res, offset), stats
}

// searchInto runs the multi-probe query with pooled scratch, appending
// the k nearest to dst (which may be nil); a non-nil accept restricts
// it to the candidates the predicate admits.
func (ix *MPIndex) searchInto(q []float32, k, lambda int, accept func(id int) bool, dst []pqueue.Neighbor) ([]pqueue.Neighbor, SearchStats) {
	if k <= 0 || lambda <= 0 {
		return dst, SearchStats{}
	}
	ctx := ix.ctxs.Get().(*searchCtx)
	issued := ix.issueProbes(ctx, q)
	return ix.finish(ctx, q, k, lambda, issued, accept, dst)
}

// issueProbes hashes q, begins the CSA scan, and issues the perturbed
// probes; it returns the number of probing sequences issued.
func (ix *MPIndex) issueProbes(ctx *searchCtx, q []float32) int {
	ctx.hq = lshfamily.HashString(ix.funcs, q, ctx.hq)
	hq := ctx.hq
	ctx.s.Begin(hq)

	issued := 1
	if ix.probes > 1 {
		maxAlt := ix.maxAlt
		if maxAlt > ix.probes {
			maxAlt = ix.probes
		}
		for i, pf := range ix.pfuncs {
			ctx.alts[i] = pf.Alternatives(q, maxAlt, ctx.alts[i])
		}
		perts := generatePerturbations(ctx.alts, ix.probes, ix.maxGap)
		for _, p := range perts {
			copy(ctx.probeStr, hq)
			ctx.modPos = ctx.modPos[:0]
			for _, md := range p.mods {
				ctx.probeStr[md.pos] = ctx.alts[md.pos][md.alt].Value
				ctx.modPos = append(ctx.modPos, md.pos)
			}
			ctx.affected = ctx.s.Probe(ctx.probeStr, ctx.modPos, ctx.affected)
			issued++
		}
	}
	return issued
}
