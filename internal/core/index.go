// Package core implements the paper's primary contribution: the LCCS-LSH
// scheme (§4.1) and its multi-probe variant MP-LCCS-LSH (§4.2).
//
// Indexing phase: draw m i.i.d. LSH functions h_1..h_m from any LSH
// family, hash every data object o into the length-m hash string
// H(o) = [h_1(o), ..., h_m(o)], and build a Circular Shift Array over the
// n hash strings. Query phase: hash q the same way, retrieve the λ+k−1
// strings with the longest LCCS against H(q) from the CSA, verify them
// with exact distances, and return the k nearest.
//
// The scheme is LSH-family-independent: it supports any distance metric
// that admits an LSH family, and it exposes a single capacity parameter m
// (plus the per-query candidate budget λ).
//
// The data plane is flat: vectors live in a vec.Store (one contiguous
// float32 block) and every per-query scratch object — the CSA searcher,
// the hash-string buffer, the k-best collector, the multi-probe
// perturbation state — lives in one pooled searchCtx, so a steady-state
// query performs no heap allocations.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lccs/internal/csa"
	"lccs/internal/lshfamily"
	"lccs/internal/obs"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// verifyBatch is the number of candidate ids drained from the CSA
// stream per batched distance gather. Large enough to amortize the
// per-batch dispatch, small enough that the id/distance scratch lives
// comfortably inside the pooled searchCtx.
const verifyBatch = 64

// Params configures an LCCS-LSH index.
type Params struct {
	// M is the hash-string length — the paper's single tunable indexing
	// parameter (§4, "it requires to tune only a single parameter m").
	M int
	// Seed drives all randomness (hash function draws); equal seeds
	// yield identical indexes.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M <= 0 {
		return fmt.Errorf("core: M must be positive, got %d", p.M)
	}
	return nil
}

// SearchStats describes the work done by one query, used by the
// experiment harness.
type SearchStats struct {
	// Candidates is the number of distinct data objects verified with
	// an exact distance computation.
	Candidates int
	// Probes is the number of probing sequences issued (1 for
	// single-probe LCCS-LSH).
	Probes int
	// Comparisons is the number of hash-string comparisons performed by
	// the CSA's circular binary searches — the "rows touched" of the
	// retrieval phase, as opposed to the Candidates verified exactly.
	Comparisons int
	// Reranked is the number of candidates re-ranked with exact float32
	// distances after the quantized (SQ8) scan; 0 on exact indexes.
	Reranked int
	// BytesScanned is the vector-block memory traffic of the
	// verification phase: float32 gathers cost 4 bytes per dimension per
	// candidate, SQ8 score gathers 1 byte, and the exact re-rank pays
	// the float32 rate again for its survivors.
	BytesScanned int64
	// FilterRejected counts candidates the accept predicate discarded
	// before any distance work (filtered searches only).
	FilterRejected int
}

// Add accumulates o into s (facades fold per-shard stats into one query
// record with it).
func (s *SearchStats) Add(o SearchStats) {
	s.Candidates += o.Candidates
	s.Probes += o.Probes
	s.Comparisons += o.Comparisons
	s.Reranked += o.Reranked
	s.BytesScanned += o.BytesScanned
	s.FilterRejected += o.FilterRejected
}

// Index is a single-probe LCCS-LSH index over a fixed dataset.
// It is safe for concurrent queries.
type Index struct {
	family lshfamily.Family
	funcs  []lshfamily.Func
	metric vec.Metric
	store  *vec.Store
	csa    *csa.CSA
	m      int
	seed   uint64

	// sq8, when non-nil, is the scalar-quantized mirror of store:
	// candidate verification ranks by approximate quantized scores and
	// re-ranks the best rerank of them with exact distances.
	sq8    *vec.SQ8Store
	rerank int

	buildTime time.Duration
	// ctxs pools searchCtx values: all per-query scratch in one object,
	// one Get/Put per query.
	ctxs sync.Pool
}

// searchCtx is the pooled per-query state: everything a search touches
// besides the immutable index, reused across queries so the steady-state
// hot path performs no heap allocations.
type searchCtx struct {
	s    *csa.Searcher
	hq   []int32      // hash-string buffer, H(q)
	best pqueue.KBest // k-best verification collector
	// batched-verification scratch: candidate ids drained from the CSA
	// stream and their gathered distances / quantized scores.
	ids    [verifyBatch]int32
	dists  [verifyBatch]float64
	scores [verifyBatch]float32
	// quantized-path scratch: per-query SQ8 state, the approx-score
	// collector, and the sorted winners buffer for the exact re-rank.
	sq8q  vec.SQ8Query
	rr    pqueue.KBest
	rrBuf []pqueue.Neighbor
	// multi-probe scratch (unused, zero-cost for single-probe indexes)
	alts     [][]lshfamily.Alternative
	probeStr []int32
	modPos   []int
	affected []int
	// per-query cost accumulators, reset on entry and read into the
	// returned SearchStats: vector-block bytes touched and candidates
	// the filter predicate rejected.
	bytes    int64
	rejected int
}

// initPool installs the searchCtx pool; called once per constructed or
// decoded index.
func (ix *Index) initPool() {
	m := ix.m
	ix.ctxs.New = func() any {
		return &searchCtx{
			s:        ix.csa.NewSearcher(),
			hq:       make([]int32, m),
			alts:     make([][]lshfamily.Alternative, m),
			probeStr: make([]int32, m),
		}
	}
}

// Build constructs an LCCS-LSH index over data using the given LSH
// family. It is the row-slice convenience wrapper around BuildStore:
// the rows are packed once into a flat vec.Store, which the index
// retains.
func Build(data [][]float32, family lshfamily.Family, p Params) (*Index, error) {
	store, err := vec.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return BuildStore(store, family, p)
}

// BuildStore constructs an LCCS-LSH index over the vectors of a flat
// store. The store is retained by reference and must not be mutated
// afterwards (appends to an owning store the index got a Slice view of
// are fine — views are stable).
func BuildStore(store *vec.Store, family lshfamily.Family, p Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := store.Len()
	if n == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if store.Dim() != family.Dim() {
		return nil, fmt.Errorf("core: store has dimension %d, family expects %d", store.Dim(), family.Dim())
	}
	start := time.Now()
	g := rng.New(p.Seed)
	funcs := lshfamily.NewFuncs(family, p.M, g)

	// Hash all objects in parallel; the flat block is handed straight to
	// the CSA.
	m := p.M
	flat := make([]int32, n*m)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for id := lo; id < hi; id++ {
				lshfamily.HashString(funcs, store.Row(id), flat[id*m:(id+1)*m])
			}
		}(lo, hi)
	}
	wg.Wait()

	ix := &Index{
		family: family,
		funcs:  funcs,
		metric: family.Metric(),
		store:  store,
		csa:    csa.NewFromFlat(flat, n, m),
		m:      m,
		seed:   p.Seed,
	}
	ix.initPool()
	ix.buildTime = time.Since(start)
	return ix, nil
}

// M returns the hash-string length.
func (ix *Index) M() int { return ix.m }

// Seed returns the seed the hash functions were drawn from.
func (ix *Index) Seed() uint64 { return ix.seed }

// N returns the number of indexed objects.
func (ix *Index) N() int { return ix.store.Len() }

// Family returns the LSH family backing the index.
func (ix *Index) Family() lshfamily.Family { return ix.family }

// Metric returns the index's distance metric.
func (ix *Index) Metric() vec.Metric { return ix.metric }

// BuildTime returns the wall-clock indexing time.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// Bytes returns the approximate memory footprint of the index: the CSA
// plus the hash functions (the dataset itself is not counted, matching the
// paper's index-size metric).
func (ix *Index) Bytes() int64 {
	return ix.csa.Bytes() + lshfamily.FuncsBytes(ix.funcs)
}

// HashQuery computes H(q) for a query vector. Exposed for tests and for
// tools that inspect hash strings.
func (ix *Index) HashQuery(q []float32) []int32 {
	return lshfamily.HashString(ix.funcs, q, nil)
}

// Search answers a c-k-ANNS query: it performs a (λ+k−1)-LCCS search of
// H(q) (§4.1), verifies the candidates with exact distances, and returns
// the k nearest in ascending distance order. lambda is the candidate
// budget λ; larger values trade time for recall.
func (ix *Index) Search(q []float32, k, lambda int) []pqueue.Neighbor {
	res, _ := ix.searchInto(q, k, lambda, nil, nil)
	return res
}

// SearchWithStats is Search plus work counters.
func (ix *Index) SearchWithStats(q []float32, k, lambda int) ([]pqueue.Neighbor, SearchStats) {
	return ix.searchInto(q, k, lambda, nil, nil)
}

// searchInto runs the single-probe query with pooled scratch, appending
// the k nearest to dst (which may be nil). A non-nil accept restricts
// the query to the candidates it admits (see verifyCandidates).
func (ix *Index) searchInto(q []float32, k, lambda int, accept func(id int) bool, dst []pqueue.Neighbor) ([]pqueue.Neighbor, SearchStats) {
	if k <= 0 || lambda <= 0 {
		return dst, SearchStats{}
	}
	ctx := ix.ctxs.Get().(*searchCtx)
	ctx.hq = lshfamily.HashString(ix.funcs, q, ctx.hq)
	ctx.s.Begin(ctx.hq)
	return ix.finish(ctx, q, k, lambda, 1, accept, dst)
}

// finish is the verification phase shared by the single- and
// multi-probe queries: ctx.s has begun its candidate stream (probes
// probing sequences issued); the λ+k−1 candidates it yields are
// verified, the k nearest appended to dst, and ctx returned to the
// pool. A filtered verification (non-nil accept) is timed into the obs
// "filter" stage histogram.
func (ix *Index) finish(ctx *searchCtx, q []float32, k, lambda, probes int, accept func(id int) bool, dst []pqueue.Neighbor) ([]pqueue.Neighbor, SearchStats) {
	ctx.best.Reset(k)
	ctx.bytes, ctx.rejected = 0, 0
	var start time.Time
	if accept != nil {
		start = time.Now()
	}
	verified, reranked := ix.verifyCandidates(ctx, q, k, lambda+k-1, accept)
	if accept != nil {
		obs.ObserveDur(obs.StageFilter, time.Since(start))
	}
	dst = ctx.best.AppendSorted(dst)
	stats := SearchStats{Candidates: verified, Probes: probes, Comparisons: ctx.s.Comparisons(), Reranked: reranked, BytesScanned: ctx.bytes, FilterRejected: ctx.rejected}
	ix.ctxs.Put(ctx)
	return dst, stats
}

// EnableSQ8 attaches a scalar-quantized mirror of the index's store.
// Candidate verification then scans qs instead of the float32 store —
// one byte per dimension of memory traffic — collects the best rerank
// candidates by approximate score, and re-ranks those with exact
// distances, so returned distances are always exact. rerank values
// below the query's k are raised to k at query time. The metric must
// satisfy vec.SQ8Supported and qs must mirror the full store.
func (ix *Index) EnableSQ8(qs *vec.SQ8Store, rerank int) {
	if qs == nil {
		ix.sq8, ix.rerank = nil, 0
		return
	}
	if !vec.SQ8Supported(ix.metric) {
		panic(fmt.Sprintf("core: metric %q not supported by SQ8", ix.metric.Name()))
	}
	if qs.Len() != ix.store.Len() {
		panic("core: SQ8 store length mismatch")
	}
	if rerank <= 0 {
		rerank = defaultRerank(ix.store.Len())
	}
	ix.sq8 = qs
	ix.rerank = rerank
}

// SQ8 returns the attached quantized store, or nil (persistence hook).
func (ix *Index) SQ8() *vec.SQ8Store { return ix.sq8 }

// Rerank returns the configured exact re-rank depth (0 when exact).
func (ix *Index) Rerank() int {
	if ix.sq8 == nil {
		return 0
	}
	return ix.rerank
}

// defaultRerank picks a re-rank depth when the caller didn't: deep
// enough that SQ8 ranking noise around the cut line is overwhelmingly
// unlikely to evict a true neighbor, shallow enough to stay a small
// fraction of the verification budget.
func defaultRerank(n int) int {
	r := 64
	if n < r {
		r = n
	}
	if r < 1 {
		r = 1
	}
	return r
}

// nextBatch drains candidates from ctx.s into ctx.ids until it holds
// want of them or the stream runs dry (drained). A non-nil accept is
// applied to each drained candidate first: a rejected id costs one
// predicate call, is counted in ctx.rejected, and takes no slot.
func nextBatch(ctx *searchCtx, want int, accept func(id int) bool) (b int, drained bool) {
	for b < want {
		r, ok := ctx.s.Next()
		if !ok {
			return b, true
		}
		if accept != nil && !accept(r.ID) {
			ctx.rejected++
			continue
		}
		ctx.ids[b] = int32(r.ID)
		b++
	}
	return b, false
}

// verifyCandidates verifies up to nCand candidates from ctx.s, computing
// their distances in batches of verifyBatch through the gather kernels,
// and feeds ctx.best (already Reset to k). It returns the number of
// candidates verified and the number re-ranked exactly (quantized path
// only). Candidates enter ctx.best in CSA stream order, so results are
// bit-identical to per-row verification.
//
// With a non-nil accept, candidates the predicate rejects are discarded
// before any distance work and do not count toward nCand, so the stream
// keeps draining (in LCCS order) until nCand matching candidates are
// verified or it is exhausted — the over-fetch ladder for selective
// filters is built in. With an exhaustive budget (λ ≥ n) every matching
// row is verified, making the result exactly the brute-force answer
// over matching vectors.
func (ix *Index) verifyCandidates(ctx *searchCtx, q []float32, k, nCand int, accept func(id int) bool) (verified, reranked int) {
	if ix.sq8 != nil {
		return ix.verifyQuantized(ctx, q, k, nCand, accept)
	}
	for verified < nCand {
		b, drained := nextBatch(ctx, min(nCand-verified, verifyBatch), accept)
		if b > 0 {
			ix.store.GatherDistancesInto(ctx.ids[:b], q, ix.metric, ctx.dists[:b])
			ctx.bytes += int64(b) * int64(ix.store.Dim()) * 4
			for i := 0; i < b; i++ {
				ctx.best.Add(int(ctx.ids[i]), ctx.dists[i])
			}
			verified += b
		}
		if drained {
			break
		}
	}
	return verified, 0
}

// verifyQuantized is the SQ8 verification path: rank the candidate
// stream (past the rejects of a non-nil accept) by approximate quantized
// score, then re-rank the winners with exact float32 distances into
// ctx.best. The re-rank phase is timed into the obs "rerank" stage
// histogram.
func (ix *Index) verifyQuantized(ctx *searchCtx, q []float32, k, nCand int, accept func(id int) bool) (verified, reranked int) {
	ix.sq8.Prepare(ix.metric, q, &ctx.sq8q)
	ctx.rr.Reset(max(ix.rerank, k))
	for verified < nCand {
		b, drained := nextBatch(ctx, min(nCand-verified, verifyBatch), accept)
		if b > 0 {
			ix.sq8.GatherScoresInto(ctx.ids[:b], &ctx.sq8q, ctx.scores[:b])
			ctx.bytes += int64(b) * int64(ix.store.Dim())
			for i := 0; i < b; i++ {
				ctx.rr.Add(int(ctx.ids[i]), float64(ctx.scores[i]))
			}
			verified += b
		}
		if drained {
			break
		}
	}
	start := time.Now()
	ctx.rrBuf = ctx.rr.AppendSorted(ctx.rrBuf[:0])
	for base := 0; base < len(ctx.rrBuf); base += verifyBatch {
		c := min(len(ctx.rrBuf)-base, verifyBatch)
		for i := 0; i < c; i++ {
			ctx.ids[i] = int32(ctx.rrBuf[base+i].ID)
		}
		ix.store.GatherDistancesInto(ctx.ids[:c], q, ix.metric, ctx.dists[:c])
		ctx.bytes += int64(c) * int64(ix.store.Dim()) * 4
		for i := 0; i < c; i++ {
			ctx.best.Add(int(ctx.ids[i]), ctx.dists[i])
		}
	}
	reranked = len(ctx.rrBuf)
	obs.ObserveDur(obs.StageRerank, time.Since(start))
	return verified, reranked
}

// SearchFilterOffsetIntoStats is the shard-local query: the index
// covers a contiguous slice of a larger dataset starting at global id
// offset, the k nearest are appended to dst (reset to dst[:0] first)
// with every id shifted by offset so results from several shards merge
// without remapping, and the query's work counters are returned. A
// non-nil accept restricts the query to the candidates it admits; it
// receives shard-local ids (before the offset shift).
func (ix *Index) SearchFilterOffsetIntoStats(q []float32, k, lambda, offset int, accept func(id int) bool, dst []pqueue.Neighbor) ([]pqueue.Neighbor, SearchStats) {
	res, stats := ix.searchInto(q, k, lambda, accept, dst[:0])
	return shiftIDs(res, offset), stats
}

// SearchRowsOffsetIntoStats ranks an explicit row set instead of the
// CSA stream: every row of rows (shard-local ids) that accept admits is
// verified with an exact float32 distance, so the result is the exact
// top-k over the admitted rows whatever the budget. It is the postings
// path of a filtered search; the work is timed into the obs "filter"
// stage like the drain it replaces. Comparisons stay 0 (no hash-string
// search runs), Candidates counts the rows gathered, FilterRejected the
// rows accept turned away.
func (ix *Index) SearchRowsOffsetIntoStats(q []float32, k int, rows []int32, offset int, accept func(id int) bool, dst []pqueue.Neighbor) ([]pqueue.Neighbor, SearchStats) {
	dst = dst[:0]
	if k <= 0 {
		return dst, SearchStats{}
	}
	ctx := ix.ctxs.Get().(*searchCtx)
	ctx.best.Reset(k)
	start := time.Now()
	var stats SearchStats
	for len(rows) > 0 {
		b := 0
		for b < verifyBatch && len(rows) > 0 {
			id := rows[0]
			rows = rows[1:]
			if !accept(int(id)) {
				stats.FilterRejected++
				continue
			}
			ctx.ids[b] = id
			b++
		}
		if b == 0 {
			continue
		}
		ix.store.GatherDistancesInto(ctx.ids[:b], q, ix.metric, ctx.dists[:b])
		for i := 0; i < b; i++ {
			ctx.best.Add(int(ctx.ids[i]), ctx.dists[i])
		}
		stats.Candidates += b
	}
	obs.ObserveDur(obs.StageFilter, time.Since(start))
	stats.BytesScanned = int64(stats.Candidates) * int64(ix.store.Dim()) * 4
	dst = ctx.best.AppendSorted(dst)
	ix.ctxs.Put(ctx)
	return shiftIDs(dst, offset), stats
}

// Data returns the indexed vector with the given id (a view into the
// flat store; treat it as read-only).
func (ix *Index) Data(id int) []float32 { return ix.store.Row(id) }

// Store returns the flat vector store backing the index (read-only).
func (ix *Index) Store() *vec.Store { return ix.store }

// shiftIDs adds offset to every neighbor id in place and returns the
// slice.
func shiftIDs(res []pqueue.Neighbor, offset int) []pqueue.Neighbor {
	if offset != 0 {
		for i := range res {
			res[i].ID += offset
		}
	}
	return res
}
