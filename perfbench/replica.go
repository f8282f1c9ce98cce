package main

import (
	"fmt"
	"sort"
	"sync"

	"lccs"
	"lccs/internal/core"
	"lccs/internal/csa"
	"lccs/internal/lshfamily"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// replica rebuilds the index's lower layers from their own packages:
// shard 0's hash functions and circular shift array, so the ladder can
// time the hash and the CSA drain on their own, and each shard's
// internal/core index, which the facade keeps private (its per-shard
// Index does not carry the sharded index's attributes, so it cannot
// answer the filtered workload). Everything is drawn from the family
// and seed the index configuration selects; the ladder checks on every
// query that the replica's drain reproduces shard 0's cost record.
type replica struct {
	funcs  []lshfamily.Func
	store  *vec.Store // shard 0's rows
	csa    *csa.CSA
	metric vec.Metric
	cores  []*core.Index // one per shard, over rows [offsets[s], offsets[s+1])
}

// newReplica builds the replica over the base rows split at offsets
// (offsets[0] = 0, the last entry = len(in.base)).
func newReplica(in *inputs, offsets []int) (*replica, error) {
	full, err := vec.FromRows(in.base)
	if err != nil {
		return nil, err
	}
	dim := full.Dim()
	var fam lshfamily.Family
	switch in.metric {
	case lccs.Angular:
		fam = lshfamily.NewCrossPolytope(dim)
	case lccs.Euclidean:
		fam = lshfamily.NewRandomProjection(dim, bucketWidth(full, indexSeed))
	default:
		return nil, fmt.Errorf("replica: unsupported metric %q", in.metric)
	}
	r := &replica{funcs: lshfamily.NewFuncs(fam, indexM, rng.New(indexSeed)), metric: fam.Metric()}
	for s := 0; s+1 < len(offsets); s++ {
		ix, err := core.BuildStore(full.Slice(offsets[s], offsets[s+1]), fam, core.Params{M: indexM, Seed: indexSeed})
		if err != nil {
			return nil, err
		}
		r.cores = append(r.cores, ix)
	}
	n0 := offsets[1]
	r.store = full.Slice(0, n0)
	flat := make([]int32, n0*indexM)
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; id < n0; id += workers {
				lshfamily.HashString(r.funcs, r.store.Row(id), flat[id*indexM:(id+1)*indexM])
			}
		}(w)
	}
	wg.Wait()
	r.csa = csa.NewFromFlat(flat, n0, indexM)
	return r, nil
}

// drain starts a search of hq and takes candidates from the CSA stream
// until nCand of them pass accept (nil accepts all) or the stream ends,
// exactly as the index's verification loop does. It returns the
// accepted ids (appended to ids[:0]) and the number rejected.
func drain(s *csa.Searcher, hq []int32, nCand int, accept func(id int) bool, ids []int32) ([]int32, int) {
	s.Begin(hq)
	ids = ids[:0]
	rejected := 0
	for len(ids) < nCand {
		r, ok := s.Next()
		if !ok {
			break
		}
		if accept != nil && !accept(r.ID) {
			rejected++
			continue
		}
		ids = append(ids, int32(r.ID))
	}
	return ids, rejected
}

// bucketWidth repeats the facade's rule for deriving the Euclidean
// bucket width (twice the median nearest-neighbour distance over a
// seeded sample of the whole data set). Should the rule change, the
// ladder's per-query check against the shard's cost record fails loudly.
func bucketWidth(store *vec.Store, seed uint64) float64 {
	g := rng.New(seed ^ 0xB0C4E7)
	const samples, pool = 64, 512
	n := store.Len()
	dists := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		a := store.Row(g.IntN(n))
		best := -1.0
		for t := 0; t < pool && t < n; t++ {
			d := vec.Distance(a, store.Row(g.IntN(n)))
			if d != 0 && (best < 0 || d < best) {
				best = d
			}
		}
		if best > 0 {
			dists = append(dists, best)
		}
	}
	if len(dists) == 0 {
		return 1
	}
	sort.Float64s(dists)
	if w := 2 * dists[len(dists)/2]; w > 0 {
		return w
	}
	return 1
}
