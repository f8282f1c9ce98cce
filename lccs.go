// Package lccs is the public API of this repository: a Go implementation
// of LCCS-LSH, the Locality-Sensitive Hashing scheme based on the Longest
// Circular Co-Substring search framework (Lei, Huang, Kankanhalli, Tung —
// SIGMOD 2020).
//
// An index hashes every data vector with m i.i.d. LSH functions into a
// length-m hash string and organizes the strings in a Circular Shift
// Array. A query retrieves the data objects whose hash strings share the
// longest circular co-substring with the query's hash string — a dynamic
// concatenation of consecutive hash values — verifies them with exact
// distances, and returns the k nearest. The scheme is LSH-family
// independent: Euclidean, Angular (cosine), and Hamming metrics are
// supported out of the box, and only one capacity parameter (m) needs
// tuning.
//
// Basic usage:
//
//	ix, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 64})
//	if err != nil { ... }
//	neighbors := ix.Search(query, 10)
//
// Multi-probe querying (MP-LCCS-LSH, smaller indexes at equal recall) is
// enabled by setting Config.Probes > 1.
//
// Beyond the single static Index, the package provides ShardedIndex —
// the dataset partitioned across S shards whose CSAs build in parallel
// and whose per-shard top-k results merge through a tournament tree —
// and DynamicIndex, a delta-main structure whose buffered inserts are
// rebuilt into new shards in the background without blocking writers.
// All three implement the Searcher interface, so consumers (including
// the internal/server network daemon behind cmd/lccs-serve) are
// agnostic to which facade backs them. See README.md for the
// architecture and shard-count guidance.
package lccs

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"lccs/internal/core"
	"lccs/internal/obs"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// Trace is the per-request span recorder of the observability layer
// (internal/obs), re-exported so callers outside the module can trace
// SearchCostInto. A nil *Trace is always valid and selects the untraced
// zero-allocation path; every Trace method is nil-safe.
type Trace = obs.Trace

// SpanNode is the serialized form of one trace span, children nested —
// what Trace.Tree returns and what the server inlines for
// "trace": true requests.
type SpanNode = obs.SpanNode

// NewTrace draws a pooled, reset Trace stamped with the caller's
// request id. Pair with ReleaseTrace once the span tree has been
// consumed; the Trace must not be used after release.
func NewTrace(id uint64) *Trace { return obs.GetTrace(id) }

// ReleaseTrace returns a Trace to the pool. Safe on nil.
func ReleaseTrace(t *Trace) { obs.PutTrace(t) }

// Cost is the per-query resource-cost record accumulated by
// SearchCostInto: every counter is summed across shards and the delta
// buffer, so one Cost describes the whole query regardless of which
// facade answered it. All fields are additive — reuse one Cost across
// queries to meter a workload, or reset it per query to bill one.
type Cost struct {
	// Comparisons counts hash-string comparisons by the CSA circular
	// binary searches (the retrieval phase's rows touched).
	Comparisons int64 `json:"comparisons"`
	// Candidates counts data objects verified with a distance kernel.
	Candidates int64 `json:"candidates"`
	// Reranked counts SQ8-scan survivors re-ranked with exact float32
	// distances (0 on unquantized indexes).
	Reranked int64 `json:"reranked"`
	// BytesScanned is the vector-block memory traffic of verification:
	// float32 gathers at 4 bytes per dimension per candidate, SQ8 score
	// gathers at 1, the exact re-rank at 4 again.
	BytesScanned int64 `json:"bytes_scanned"`
	// FilterRejected counts candidates the filter predicate discarded
	// before any distance work.
	FilterRejected int64 `json:"filter_rejected"`
}

// Reset zeroes every counter. Safe on nil.
func (c *Cost) Reset() {
	if c != nil {
		*c = Cost{}
	}
}

// addStats folds one core-level stats record into the cost. Safe on
// nil, so untraced unmetered callers pass nil and pay one branch.
func (c *Cost) addStats(st core.SearchStats) {
	if c == nil {
		return
	}
	c.Comparisons += int64(st.Comparisons)
	c.Candidates += int64(st.Candidates)
	c.Reranked += int64(st.Reranked)
	c.BytesScanned += st.BytesScanned
	c.FilterRejected += int64(st.FilterRejected)
}

// CostSearcher is the one query path of every facade: a budgeted top-k
// search appending into dst (reset to dst[:0] first; dst may be nil),
// restricted to the vectors matching f, accumulating the query's
// resource cost into co, and recording spans into tr. Each of f, co,
// and tr may independently be nil — a nil filter matches everything, a
// nil cost skips accounting, a nil trace skips spans. With a reused dst
// and nil co and tr, a steady-state query performs no heap
// allocations. A non-positive lambda selects the facade's default
// budget.
type CostSearcher interface {
	SearchCostInto(q []float32, k, lambda int, f *Filter, dst []Neighbor, co *Cost, tr *Trace) ([]Neighbor, error)
}

// Typed query-validation errors. Every facade returns exactly these (or
// wrapped forms testable with errors.Is) for the corresponding invalid
// input instead of silently returning an empty result.
var (
	// ErrInvalidK is returned when k ≤ 0.
	ErrInvalidK = errors.New("lccs: k must be positive")
	// ErrInvalidBudget is returned when the candidate budget λ ≤ 0.
	ErrInvalidBudget = errors.New("lccs: candidate budget must be positive")
	// ErrEmptyQuery is returned for a nil or zero-length query vector.
	ErrEmptyQuery = errors.New("lccs: nil or empty query")
	// ErrEmptyVector is returned by write paths (DynamicIndex.Add) for a
	// nil or zero-length vector.
	ErrEmptyVector = errors.New("lccs: nil or empty vector")
	// ErrDimensionMismatch is returned when the query dimensionality does
	// not match the indexed data.
	ErrDimensionMismatch = errors.New("lccs: query dimension mismatch")
	// ErrNonFiniteQuery is returned for a query with a NaN or ±Inf
	// component, whose distances would order nothing.
	ErrNonFiniteQuery = errors.New("lccs: query has a NaN or infinite component")
	// ErrNonFiniteVector is returned by write paths (DynamicIndex.Add)
	// for a vector with a NaN or ±Inf component.
	ErrNonFiniteVector = errors.New("lccs: vector has a NaN or infinite component")
)

// Searcher is the facade-agnostic query interface implemented by Index,
// ShardedIndex, DynamicIndex, and DurableIndex. Consumers that only
// search — the network server, evaluation harnesses, future backends —
// should accept a Searcher rather than a concrete facade.
//
// All search methods validate their input and return the package's
// typed errors (ErrInvalidK, ErrInvalidBudget, ErrEmptyQuery,
// ErrDimensionMismatch, ErrNonFiniteQuery, ErrInvalidFilter); results
// are in ascending distance order.
type Searcher interface {
	// Search returns the k nearest neighbors under the facade's default
	// candidate budget.
	Search(q []float32, k int) ([]Neighbor, error)
	// SearchBudget is Search with an explicit candidate budget λ > 0.
	SearchBudget(q []float32, k, lambda int) ([]Neighbor, error)
	// CostSearcher is the one search body the other methods call:
	// filtered, metered, traced, appending into a caller buffer.
	CostSearcher
	// SearchCursor pages through the ranked result stream. limit is the
	// page size; lambda the candidate budget (≤ 0 selects the default,
	// ignored on resume — the token carries the original); f may be nil.
	// An empty cursor starts a new scan; the returned next token is
	// empty once the stream is exhausted.
	SearchCursor(q []float32, limit, lambda int, f *Filter, cursor string) (page []Neighbor, next string, err error)
	// SearchBatch answers many queries (concurrently where the facade
	// supports it) under the default budget, in query order.
	SearchBatch(queries [][]float32, k int) ([][]Neighbor, error)
	// SearchBatchBudget is SearchBatch with an explicit budget λ.
	SearchBatchBudget(queries [][]float32, k, lambda int) ([][]Neighbor, error)
	// Len returns the number of searchable vectors.
	Len() int
	// Distance returns the facade's metric distance between two vectors.
	Distance(a, b []float32) float64
}

// Compile-time conformance of the facades (DurableIndex embeds
// DynamicIndex and inherits its search methods).
var (
	_ Searcher = (*Index)(nil)
	_ Searcher = (*ShardedIndex)(nil)
	_ Searcher = (*DynamicIndex)(nil)
)

// validateBudget applies the explicit-budget contract of SearchBudget
// and SearchBatchBudget: positive k, then a positive budget λ (λ ≤ 0
// selects the default only on SearchCostInto and SearchCursor).
func validateBudget(k, lambda int) error {
	if k <= 0 {
		return ErrInvalidK
	}
	if lambda <= 0 {
		return ErrInvalidBudget
	}
	return nil
}

// validateQuery applies the shared query contract: positive k and
// budget, a non-empty query of finite components, and (when dim > 0 is
// known) a matching dimensionality.
func validateQuery(q []float32, dim, k, lambda int) error {
	if err := validateBudget(k, lambda); err != nil {
		return err
	}
	if len(q) == 0 {
		return ErrEmptyQuery
	}
	if dim > 0 && len(q) != dim {
		return fmt.Errorf("%w: query has %d dimensions, index has %d", ErrDimensionMismatch, len(q), dim)
	}
	for i, v := range q {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("%w: component %d is %v", ErrNonFiniteQuery, i, v)
		}
	}
	return nil
}

// ParseMetric resolves a CLI-style metric name to a MetricKind. It
// accepts the canonical names of all four supported metrics plus common
// aliases: euclidean/l2, angular/cosine, hamming, jaccard/minhash.
func ParseMetric(name string) (MetricKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "euclidean", "l2":
		return Euclidean, nil
	case "angular", "cosine":
		return Angular, nil
	case "hamming":
		return Hamming, nil
	case "jaccard", "minhash":
		return Jaccard, nil
	}
	return "", fmt.Errorf("lccs: unknown metric %q (want euclidean|angular|hamming|jaccard)", name)
}

// MetricKind selects the distance metric (and with it the default LSH
// family) of an index.
type MetricKind string

// Supported metrics and their LSH families.
const (
	// Euclidean uses the p-stable random-projection family of Datar et
	// al. (Eq. 1 of the paper).
	Euclidean MetricKind = "euclidean"
	// Angular uses the cross-polytope family of Andoni et al. (Eq. 3)
	// with fast pseudo-random rotations; vectors are compared by angle.
	Angular MetricKind = "angular"
	// Hamming uses the bit-sampling family of Indyk–Motwani; vectors
	// must hold integral 0/1 coordinates.
	Hamming MetricKind = "hamming"
	// Jaccard uses the MinHash family of Broder; vectors are binary
	// indicator encodings of sets (coordinate j nonzero ⇔ j ∈ set).
	Jaccard MetricKind = "jaccard"
)

// QuantizeSQ8 selects the per-dimension affine int8 scalar quantization
// for Config.Quantize: candidate verification scans one byte per
// dimension instead of four, and the best Rerank candidates are
// re-ranked with exact float32 distances, so returned distances are
// always exact.
const QuantizeSQ8 = "sq8"

// Config configures an index.
type Config struct {
	// Metric selects the distance metric. Required.
	Metric MetricKind
	// M is the hash-string length, the scheme's single capacity
	// parameter: larger m raises recall per candidate at the cost of
	// memory (3·4·n·m bytes) and per-query hashing. 0 selects 64.
	M int
	// Probes enables multi-probe querying (MP-LCCS-LSH) when > 1: each
	// query additionally explores Probes−1 perturbed hash strings,
	// recovering recall on smaller indexes. 0 or 1 selects single-probe.
	Probes int
	// BucketWidth is the w of the Euclidean family (Eq. 1). 0 derives it
	// from a sample of the data (twice the median 10-NN distance of a
	// small sample), mirroring how the paper fine-tunes w per dataset.
	BucketWidth float64
	// Budget is the default per-query candidate budget λ used by Search.
	// 0 selects 100.
	Budget int
	// Seed makes index construction deterministic.
	Seed uint64
	// Quantize selects an optional compressed mirror of the vector store
	// scanned during candidate verification. "" (the default) verifies
	// against the exact float32 store; QuantizeSQ8 scans a per-dimension
	// affine int8 quantization — a quarter of the memory traffic — and
	// restores exactness by re-ranking the best Rerank candidates with
	// float32 distances. Supported for Euclidean and Angular metrics.
	Quantize string
	// Rerank is the number of quantized-scan survivors re-ranked with
	// exact distances per query when Quantize is set. 0 selects
	// min(64, n), raised to the query's k at query time; larger values
	// recover recall lost to quantization noise at the cut line.
	Rerank int
}

// Neighbor is one search result: the index of a data vector and its
// distance to the query under the index's metric.
type Neighbor struct {
	// ID indexes into the data slice the index was built from.
	ID int
	// Dist is the exact (verified) distance to the query.
	Dist float64
}

// Index is an LCCS-LSH index over a fixed dataset. It is safe for
// concurrent queries. The vectors are packed once into a flat
// structure-of-arrays store (one contiguous float32 block) that the
// index retains; the input rows are not referenced afterwards.
type Index struct {
	single *core.Index
	multi  *core.MPIndex
	metric vec.Metric
	dim    int
	// cfg is the fully resolved configuration (auto-derived bucket width
	// filled in), persisted by Save.
	cfg Config
	// attrs holds the optional per-vector metadata, slot-aligned with
	// the vector store (a shard's is the range view of its own rows);
	// nil when no vector carries attributes.
	attrs *vec.MetaStore
	// post is the equality postings index over attrs that the filter
	// planner reads; nil when none was built, which keeps every filtered
	// scan on the CSA drain. Both are set once by adoptAttrs, before the
	// index is published, and never mutated afterwards.
	post *vec.Postings
	// raw pools the core-typed result buffers behind SearchCostInto, so
	// converting to the public Neighbor type allocates nothing at steady
	// state.
	raw sync.Pool
}

// rawBuf is the pooled core-result buffer of the facade conversion.
type rawBuf struct{ buf []pqueue.Neighbor }

// getRaw fetches a pooled core-result buffer.
func (ix *Index) getRaw() *rawBuf { return ix.raw.Get().(*rawBuf) }

const (
	defaultM      = 64
	defaultBudget = 100
)

// resolveConfig fills a Config's derived fields against a dataset:
// defaults for M and Budget, and the auto-derived Euclidean bucket width.
// It is idempotent, so an already resolved Config passes through
// unchanged — which is how every shard of a ShardedIndex ends up with the
// exact same (seed-equivalent) configuration.
func resolveConfig(store *vec.Store, cfg Config) (Config, error) {
	if store.Len() == 0 {
		return cfg, errors.New("lccs: empty dataset")
	}
	if store.Dim() == 0 {
		return cfg, errors.New("lccs: zero-dimensional data")
	}
	if cfg.M == 0 {
		cfg.M = defaultM
	}
	if cfg.Budget == 0 {
		cfg.Budget = defaultBudget
	}
	if err := validateConfig(cfg); err != nil {
		return cfg, err
	}
	if cfg.Metric == Euclidean && cfg.BucketWidth == 0 {
		cfg.BucketWidth = autoBucketWidth(store, cfg.Seed)
	}
	return cfg, nil
}

// storeFromRows packs public row-slice input into a flat store,
// translating the validation error into this package's voice.
func storeFromRows(rows [][]float32) (*vec.Store, error) {
	store, err := vec.FromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("lccs: %w", err)
	}
	return store, nil
}

// validateConfig checks a Config without a dataset: value ranges and
// metric resolvability. It is the single source of truth shared by
// resolveConfig and the empty-start dynamic path, where no build runs
// yet. A zero Euclidean bucket width is acceptable here — it is
// auto-derived when the first build sees data.
func validateConfig(cfg Config) error {
	if cfg.M < 0 || cfg.Probes < 0 || cfg.Budget < 0 || cfg.BucketWidth < 0 || cfg.Rerank < 0 {
		return errors.New("lccs: negative configuration value")
	}
	switch cfg.Quantize {
	case "":
	case QuantizeSQ8:
		if cfg.Metric != Euclidean && cfg.Metric != Angular {
			return fmt.Errorf("lccs: quantize %q supports euclidean and angular metrics, got %q", cfg.Quantize, cfg.Metric)
		}
	default:
		return fmt.Errorf("lccs: unknown quantization %q (want %q)", cfg.Quantize, QuantizeSQ8)
	}
	if cfg.Metric == Euclidean && cfg.BucketWidth == 0 {
		cfg.BucketWidth = 1 // resolvability check only; derived at build time
	}
	_, err := familyFor(cfg, 1)
	return err
}

// NewIndex builds an LCCS-LSH index over data. The rows are packed once
// into a flat vector store; data itself is not retained.
func NewIndex(data [][]float32, cfg Config) (*Index, error) {
	store, err := storeFromRows(data)
	if err != nil {
		return nil, err
	}
	cfg, err = resolveConfig(store, cfg)
	if err != nil {
		return nil, err
	}
	return newIndexFromStore(store, cfg)
}

// newIndexFromStore builds the facade index over a flat store with an
// already resolved configuration — the shared constructor behind
// NewIndex, the sharded per-shard builds, and the dynamic delta builds.
func newIndexFromStore(store *vec.Store, cfg Config) (*Index, error) {
	family, err := familyFor(cfg, store.Dim())
	if err != nil {
		return nil, err
	}
	ix := &Index{metric: family.Metric(), dim: store.Dim(), cfg: cfg}
	ix.raw.New = func() any { return new(rawBuf) }
	if cfg.Probes > 1 {
		mp, err := core.BuildMPStore(store, family, core.MPParams{
			Params: core.Params{M: cfg.M, Seed: cfg.Seed},
			Probes: cfg.Probes,
		})
		if err != nil {
			return nil, err
		}
		ix.multi = mp
		ix.single = mp.Index
	} else {
		s, err := core.BuildStore(store, family, core.Params{M: cfg.M, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		ix.single = s
	}
	if cfg.Quantize == QuantizeSQ8 {
		// Quantize exactly the rows this index covers: for a sharded build
		// the store is already the shard's view, so codebooks are
		// per-shard. ix.multi shares ix.single, so both paths see it.
		ix.single.EnableSQ8(vec.QuantizeSQ8(store), cfg.Rerank)
	}
	return ix, nil
}

// autoBucketWidth estimates a bucket width from the data: twice the median
// distance from a sampled point to its nearest neighbor within a small
// sample, which places true near neighbors in the high-collision regime of
// Eq. 2.
func autoBucketWidth(store *vec.Store, seed uint64) float64 {
	g := rng.New(seed ^ 0xB0C4E7)
	const samples = 64
	const pool = 512
	n := store.Len()
	dists := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		a := store.Row(g.IntN(n))
		best := -1.0
		for t := 0; t < pool && t < n; t++ {
			b := store.Row(g.IntN(n))
			d := vec.Distance(a, b)
			if d == 0 {
				continue
			}
			if best < 0 || d < best {
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
	w := 2 * dists[len(dists)/2]
	if w <= 0 {
		return 1
	}
	return w
}

// Search returns the k nearest neighbors of q found within the index's
// default candidate budget, in ascending distance order.
func (ix *Index) Search(q []float32, k int) ([]Neighbor, error) {
	return ix.SearchBudget(q, k, ix.cfg.Budget)
}

// SearchBudget is Search with an explicit candidate budget λ: the query
// verifies the λ+k−1 data objects whose hash strings have the longest
// circular co-substring with the query's. Larger budgets trade query time
// for recall.
func (ix *Index) SearchBudget(q []float32, k, lambda int) ([]Neighbor, error) {
	if err := validateBudget(k, lambda); err != nil {
		return nil, err
	}
	return ix.SearchCostInto(q, k, lambda, nil, nil, nil, nil)
}

// SearchCostInto is the index's one search body (see CostSearcher). A
// traced query records one shard_scan span (an unsharded index is its
// own single shard) with the CSA comparison, verified-candidate, and
// bytes-scanned counters, under a query root span. A vector with no
// metadata matches only the empty filter.
func (ix *Index) SearchCostInto(q []float32, k, lambda int, f *Filter, dst []Neighbor, co *Cost, tr *Trace) ([]Neighbor, error) {
	if lambda <= 0 {
		lambda = ix.cfg.Budget
	}
	if err := validateFilter(f); err != nil {
		return nil, err
	}
	if err := validateQuery(q, ix.dim, k, lambda); err != nil {
		return nil, err
	}
	root := tr.StartSpan(obs.StageQuery, -1)
	rb := ix.getRaw()
	var stats core.SearchStats
	rb.buf, stats = ix.scan(q, k, lambda, 0, f, ix.acceptFunc(f), rb.buf, tr, root, 0)
	co.addStats(stats)
	if dst == nil {
		// The plain Search path: one exactly-sized result allocation.
		dst = make([]Neighbor, 0, len(rb.buf))
	}
	dst = appendNeighbors(dst[:0], rb.buf)
	ix.raw.Put(rb)
	if tr != nil {
		obs.ObserveDur(obs.StageQuery, tr.FinishSpan(root))
	}
	return dst, nil
}

// appendNeighbors converts core results to the public Neighbor type,
// appending into dst without allocating when dst has capacity.
func appendNeighbors(dst []Neighbor, raw []pqueue.Neighbor) []Neighbor {
	for _, r := range raw {
		dst = append(dst, Neighbor{ID: r.ID, Dist: r.Dist})
	}
	return dst
}

// Distance returns the index's metric distance between two vectors.
func (ix *Index) Distance(a, b []float32) float64 { return ix.metric.Distance(a, b) }

// M returns the hash-string length.
func (ix *Index) M() int { return ix.single.M() }

// Dim returns the dimensionality of the indexed vectors.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return ix.single.N() }

// Bytes returns the approximate index memory footprint.
func (ix *Index) Bytes() int64 { return ix.single.Bytes() }

// Quantization reports the scan-time compression in effect ("" = none,
// QuantizeSQ8) and the effective per-query re-rank depth (0 when
// unquantized).
func (ix *Index) Quantization() (kind string, rerank int) {
	if ix.single.SQ8() == nil {
		return "", 0
	}
	return ix.cfg.Quantize, ix.single.Rerank()
}

// BuildTime returns the wall-clock time spent building the index.
func (ix *Index) BuildTime() time.Duration { return ix.single.BuildTime() }
