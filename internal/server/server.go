// Package server is the network query-serving layer over the lccs
// facades: an HTTP/JSON API over a registry of named collections
// (internal/engine) — each an independently configured index — with a
// semaphore-based admission controller (bounded concurrency, bounded
// queue, per-collection concurrency shares, per-request deadlines), an
// LRU result cache keyed by collection/filter/cursor and invalidated
// per-collection by write generation, and live counter/latency metrics
// in the Prometheus text format with per-collection labels.
//
// Endpoints:
//
//	POST   /v1/collections                          create a collection
//	GET    /v1/collections                          list collections
//	DELETE /v1/collections/{name}                   drop a collection
//	POST   /v1/collections/{name}/search            one query → top-k (filtered, cursor-paginated)
//	POST   /v1/collections/{name}/search/batch      many queries → top-k each
//	POST   /v1/collections/{name}/insert            append vectors (+ optional attributes)
//	POST   /v1/collections/{name}/delete            tombstone ids
//	GET    /v1/collections/{name}/stats             per-collection stats
//	GET    /v1/stats                                JSON operational stats (all collections)
//	GET    /healthz                                 readiness (503 while draining)
//	GET    /metrics                                 Prometheus text exposition
//
// The legacy single-index routes (/v1/search, /v1/search/batch,
// /v1/insert, /v1/delete) serve the collection named "default", so
// pre-collections clients keep working unchanged.
//
// The package owns request admission and caching; process lifecycle
// (listening, signal handling, graceful drain, checkpointing) belongs
// to cmd/lccs-serve.
package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lccs"
	"lccs/internal/engine"
	"lccs/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Backend, when set, is adopted as the collection named "default":
	// the legacy single-index serving mode. At least one of Backend and
	// Engine is required.
	Backend lccs.Searcher
	// Engine is the collection registry behind /v1/collections. Nil
	// builds a rootless registry holding only the adopted Backend.
	Engine *engine.Engine
	// MaxInFlight bounds concurrently executing searches. 0 selects
	// GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// requests are rejected with 503. 0 selects 4×MaxInFlight; negative
	// disables waiting entirely (reject the moment all slots are busy).
	MaxQueue int
	// CollectionMaxInFlight caps one collection's concurrently admitted
	// requests, so a single hot tenant cannot starve the others of the
	// shared MaxInFlight slots. Requests over the share are rejected
	// with 503 before touching the global queue. 0 disables the
	// per-collection cap.
	CollectionMaxInFlight int
	// Timeout is the per-request admission deadline: a request that
	// cannot start executing within it is rejected with 503. 0 selects
	// 2 seconds.
	Timeout time.Duration
	// CacheSize is the result-cache capacity in entries; 0 disables
	// caching.
	CacheSize int
	// CacheQuantBits masks this many low mantissa bits off every query
	// coordinate in the cache key (see cacheKey). 0 caches on exact
	// float bit patterns.
	CacheQuantBits uint
	// MaxBodyBytes caps every request body; larger posts fail with 400.
	// Batch and insert bodies are additionally decoded only after
	// admission, so aggregate decode memory is bounded by
	// MaxInFlight × MaxBodyBytes. 0 selects 32 MiB.
	MaxBodyBytes int64
	// TraceSample is the fraction of searches traced without an explicit
	// request, in [0, 1]: 0.01 traces every 100th search (a deterministic
	// stride, not a coin flip, so the rate is exact and allocation-free).
	// 0 traces only requests that ask with "trace": true.
	TraceSample float64
	// SlowThreshold is the latency at or above which a finished search
	// enters the slow-query ring at /v1/debug/slow. 0 disables threshold
	// capture; traced requests are still reservoir-sampled.
	SlowThreshold time.Duration
	// SlowLogSize is the slow-query ring capacity (and the traced-request
	// reservoir capacity). 0 selects 64.
	SlowLogSize int
	// Version is reported by the lccs_build_info metric; empty selects
	// "dev".
	Version string
	// Logger receives the server's structured operational log (slow-query
	// warnings). Nil discards it.
	Logger *slog.Logger
}

// coll is the server-side request state of one collection: the
// backend answering its reads, the engine's typed write handles, the
// write generation folded into its cache keys, and its admission
// occupancy.
type coll struct {
	name    string
	backend lccs.Searcher
	// dur and dyn are the collection's write handles (engine.Collection
	// Durable and Dynamic): a durable collection writes through dur's
	// journaled batch paths, a memory-only dynamic one through dyn's
	// per-vector paths, and one with neither is read-only. dur, when
	// set, also reports WAL health.
	dur *lccs.DurableIndex
	dyn *lccs.DynamicIndex
	// spec is the resolved collection configuration (zero for adopted
	// backends); EXPLAIN reports its quantize/re-rank settings.
	spec engine.Spec
	// usage is the collection's cumulative resource accounting (owned
	// by the registry, shared by every handle); health is its windowed
	// RED/usage ring for /v1/debug/health and /v1/collections/⋯/usage.
	usage  *engine.Usage
	health *obs.Health
	// gen counts completed writes — inserts and deletes alike; it is
	// folded into every cache key, so one write invalidates all of this
	// collection's earlier cached results at once (and only this
	// collection's: the key also carries the collection name).
	gen     atomic.Uint64
	inserts atomic.Uint64
	deletes atomic.Uint64
	// occupancy counts requests of this collection currently admitted;
	// quotaRejected counts requests shed by the per-collection share.
	occupancy     atomic.Int64
	quotaRejected atomic.Uint64
}

// newColl builds the request state of a registry collection.
func newColl(ec *engine.Collection) *coll {
	return &coll{name: ec.Name(), backend: ec.Backend(), dur: ec.Durable(), dyn: ec.Dynamic(),
		spec: ec.Spec(), usage: ec.Usage(), health: new(obs.Health)}
}

// Server is the HTTP front end over the collection registry. Construct
// with New, mount Handler on an http.Server, and call SetDraining(true)
// before shutting that server down so load balancers see readiness drop
// first.
type Server struct {
	eng       *engine.Engine
	cmu       sync.RWMutex
	colls     map[string]*coll
	adm       *admission
	collShare int64        // per-collection in-flight cap; 0 = uncapped
	cache     *resultCache // nil when disabled
	quant     uint
	timeout   time.Duration
	maxBody   int64
	met       *metrics
	mux       *http.ServeMux
	slow      *obs.SlowLog
	health    *obs.Health // server-wide RED/usage ring; per-coll rings live on coll
	logger    *slog.Logger
	version   string
	// sampleEvery traces every Nth search (0 = only explicit requests);
	// sampleSeq is the stride counter behind it.
	sampleEvery uint64
	sampleSeq   atomic.Uint64
	// reqID numbers every search for log/trace correlation.
	reqID    atomic.Uint64
	draining atomic.Bool
}

// DefaultCollection is the registry name the legacy single-index routes
// serve.
const DefaultCollection = "default"

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil && cfg.Engine == nil {
		return nil, errors.New("server: Config needs a Backend or an Engine")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.TraceSample < 0 || cfg.TraceSample > 1 {
		return nil, errors.New("server: Config.TraceSample must be in [0, 1]")
	}
	if cfg.CollectionMaxInFlight < 0 {
		return nil, errors.New("server: Config.CollectionMaxInFlight must be >= 0")
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.SlowLogSize <= 0 {
		cfg.SlowLogSize = 64
	}
	eng := cfg.Engine
	if eng == nil {
		var err error
		eng, err = engine.New("", engine.Spec{}, cfg.Logger)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Backend != nil {
		if _, err := eng.Adopt(DefaultCollection, cfg.Backend); err != nil {
			return nil, fmt.Errorf("server: adopting default backend: %w", err)
		}
	}
	s := &Server{
		eng:       eng,
		colls:     make(map[string]*coll),
		adm:       newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		collShare: int64(cfg.CollectionMaxInFlight),
		quant:     cfg.CacheQuantBits,
		timeout:   cfg.Timeout,
		maxBody:   cfg.MaxBodyBytes,
		met:       newMetrics(),
		slow:      obs.NewSlowLog(cfg.SlowLogSize, cfg.SlowLogSize, cfg.SlowThreshold),
		health:    new(obs.Health),
		logger:    cfg.Logger,
		version:   cfg.Version,
	}
	if cfg.TraceSample > 0 {
		s.sampleEvery = uint64(math.Round(1 / cfg.TraceSample))
		if s.sampleEvery < 1 {
			s.sampleEvery = 1
		}
	}
	if cfg.CacheSize > 0 {
		s.cache = newResultCache(cfg.CacheSize)
	}
	// Pre-resolve already-loaded collections (the adopted default, any
	// the caller opened before handing the engine over).
	for _, ec := range eng.Loaded() {
		s.colls[ec.Name()] = newColl(ec)
	}
	s.mux = http.NewServeMux()
	// Legacy single-index routes: the "default" collection.
	s.mux.HandleFunc("/v1/search", s.handleSearch)
	s.mux.HandleFunc("/v1/search/batch", s.handleSearchBatch)
	s.mux.HandleFunc("/v1/insert", s.handleInsert)
	s.mux.HandleFunc("/v1/delete", s.handleDelete)
	// Collection routes.
	s.mux.HandleFunc("POST /v1/collections/{name}/search", s.handleSearch)
	s.mux.HandleFunc("POST /v1/collections/{name}/search/batch", s.handleSearchBatch)
	s.mux.HandleFunc("POST /v1/collections/{name}/insert", s.handleInsert)
	s.mux.HandleFunc("POST /v1/collections/{name}/delete", s.handleDelete)
	s.mux.HandleFunc("GET /v1/collections/{name}/stats", s.handleCollStats)
	s.mux.HandleFunc("GET /v1/collections/{name}/usage", s.handleCollUsage)
	s.mux.HandleFunc("POST /v1/collections", s.handleCollCreate)
	s.mux.HandleFunc("GET /v1/collections", s.handleCollList)
	s.mux.HandleFunc("DELETE /v1/collections/{name}", s.handleCollDrop)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/usage", s.handleUsage)
	s.mux.HandleFunc("/v1/debug/slow", s.handleDebugSlow)
	s.mux.HandleFunc("GET /v1/debug/health", s.handleDebugHealth)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// SetDraining flips the readiness state: while draining, /healthz
// answers 503 so load balancers stop routing here, while in-flight and
// newly arriving requests still complete (http.Server.Shutdown handles
// connection-level draining).
func (s *Server) SetDraining(d bool) { s.draining.Store(d) }

// collName extracts the target collection from the request path; the
// legacy routes carry no {name} and serve the default collection.
func collName(r *http.Request) string {
	if name := r.PathValue("name"); name != "" {
		return name
	}
	return DefaultCollection
}

// resolve returns the request's collection state, lazily opening the
// collection through the registry. On failure it writes the error
// response and returns nil.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, endpoint string) *coll {
	name := collName(r)
	s.cmu.RLock()
	c, ok := s.colls[name]
	s.cmu.RUnlock()
	if ok {
		return c
	}
	ec, err := s.eng.Get(name)
	if err != nil {
		s.fail(w, name, endpoint, engineStatus(err), err)
		return nil
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if c, ok := s.colls[name]; ok {
		return c
	}
	c = newColl(ec)
	s.colls[name] = c
	return c
}

// engineStatus maps registry errors to HTTP statuses.
func engineStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, engine.ErrExists), errors.Is(err, engine.ErrAdopted):
		return http.StatusConflict
	case errors.Is(err, engine.ErrBadName), errors.Is(err, engine.ErrInvalidSpec):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// ---- request/response bodies ----

// filterTermJSON is the wire form of one filter predicate: {"key":
// "color", "value": "red"} (equality over a string or integer), or
// {"key": "price", "op": "range", "min": 10, "max": 99} (inclusive
// int64 range, either bound optional). Terms AND together.
type filterTermJSON struct {
	Key   string `json:"key"`
	Op    string `json:"op,omitempty"` // "eq" (default) | "range"
	Value any    `json:"value,omitempty"`
	Min   *int64 `json:"min,omitempty"`
	Max   *int64 `json:"max,omitempty"`
}

// parseFilter translates the wire terms into a library filter; nil for
// an absent filter.
func parseFilter(terms []filterTermJSON) (*lccs.Filter, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	f := &lccs.Filter{Terms: make([]lccs.FilterTerm, 0, len(terms))}
	for i, t := range terms {
		switch t.Op {
		case "", "eq":
			switch v := t.Value.(type) {
			case string:
				f.Terms = append(f.Terms, lccs.EqStr(t.Key, v))
			case float64:
				if v != math.Trunc(v) || math.Abs(v) >= 1<<53 {
					return nil, fmt.Errorf("filter term %d: value %v is not an integer", i, v)
				}
				f.Terms = append(f.Terms, lccs.EqInt(t.Key, int64(v)))
			default:
				return nil, fmt.Errorf("filter term %d: \"value\" must be a string or integer", i)
			}
		case "range":
			f.Terms = append(f.Terms, lccs.Range(t.Key, t.Min, t.Max))
		default:
			return nil, fmt.Errorf("filter term %d: unknown op %q (want \"eq\" or \"range\")", i, t.Op)
		}
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

type searchRequest struct {
	Query []float32 `json:"query"`
	K     int       `json:"k"`
	// Budget is the optional candidate budget λ; 0 uses the backend's
	// default.
	Budget int `json:"budget,omitempty"`
	// Filter restricts results to vectors whose attributes match every
	// term.
	Filter []filterTermJSON `json:"filter,omitempty"`
	// Limit switches the request to cursor pagination: the response
	// carries up to Limit results plus a continuation token.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes a paginated scan from a previous response's
	// next_cursor.
	Cursor string `json:"cursor,omitempty"`
	// Trace opts this request into span recording: the response carries
	// the per-stage span tree and an X-Request-Id header.
	Trace bool `json:"trace,omitempty"`
	// Explain opts this request into plan reporting: the response
	// carries the resolved query plan (backend kind, shards visited
	// with per-shard cost, filter selectivity, cache outcome) built
	// from an internally forced trace. Implies span recording.
	Explain bool `json:"explain,omitempty"`
}

// searchScratch is the pooled per-request state of the single-search
// endpoint: the decoded request (whose query slice's backing array is
// reused by the JSON decoder), the backend result row, and the response
// payload. At steady state an unfiltered, non-paginated search request
// allocates no per-request buffers in this package.
type searchScratch struct {
	req searchRequest
	res []lccs.Neighbor
	out []neighborJSON
	co  lccs.Cost
}

// searchScratchPool serves every /v1/search request.
var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// getSearchScratch fetches pooled scratch with the request fields reset
// (the query buffer keeps its capacity for the decoder to reuse).
func getSearchScratch() *searchScratch {
	sc := searchScratchPool.Get().(*searchScratch)
	sc.req.Query = sc.req.Query[:0]
	sc.req.K = 0
	sc.req.Budget = 0
	sc.req.Filter = nil
	sc.req.Limit = 0
	sc.req.Cursor = ""
	sc.req.Trace = false
	sc.req.Explain = false
	sc.co.Reset()
	if sc.out == nil {
		// Keep the response field non-nil so an empty result encodes as
		// [] rather than null.
		sc.out = []neighborJSON{}
	}
	return sc
}

type neighborJSON struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

type searchResponse struct {
	Neighbors  []neighborJSON `json:"neighbors"`
	Cached     bool           `json:"cached"`
	TookMicros int64          `json:"took_us"`
	// NextCursor continues a paginated scan; absent when the stream is
	// exhausted or the request was not paginated.
	NextCursor string `json:"next_cursor,omitempty"`
	// RequestID and Trace are present only on traced requests.
	RequestID uint64         `json:"request_id,omitempty"`
	Trace     []obs.SpanNode `json:"trace,omitempty"`
	// Explain is the resolved query plan, present only when the request
	// asked with "explain": true.
	Explain *explainJSON `json:"explain,omitempty"`
}

// slowLogResponse is the /v1/debug/slow payload: the slow-query ring
// newest-first plus the reservoir sample of traced requests that
// finished under the threshold.
type slowLogResponse struct {
	ThresholdUS float64         `json:"threshold_us"`
	Slow        []obs.SlowEntry `json:"slow"`
	Sample      []obs.SlowEntry `json:"sample"`
}

type batchRequest struct {
	Queries [][]float32 `json:"queries"`
	K       int         `json:"k"`
	Budget  int         `json:"budget,omitempty"`
}

type batchResponse struct {
	Results    [][]neighborJSON `json:"results"`
	TookMicros int64            `json:"took_us"`
}

type insertRequest struct {
	Vectors [][]float32 `json:"vectors"`
	// Attrs optionally attaches metadata to the vectors, aligned by
	// index (attrs[i] belongs to vectors[i]); values are strings or
	// integers. null entries attach nothing.
	Attrs []map[string]any `json:"attrs,omitempty"`
}

// deleteRequest accepts a single id, a batch, or both; {"id": 0} is
// distinguishable from an absent field through the pointer.
type deleteRequest struct {
	ID  *int  `json:"id,omitempty"`
	IDs []int `json:"ids,omitempty"`
}

type deleteResponse struct {
	// Deleted counts ids that were live and are now tombstoned.
	Deleted int `json:"deleted"`
	// Missing lists ids that were unknown or already deleted — the
	// request is idempotent, so these are reported, not failed.
	Missing []int `json:"missing,omitempty"`
	// RequestID correlates the response with the server's structured log
	// (also sent as the X-Request-Id header).
	RequestID uint64 `json:"request_id,omitempty"`
}

type insertResponse struct {
	IDs []int `json:"ids"`
	// Warning carries a non-fatal backend condition (e.g. a previous
	// background delta build failed); the inserts themselves succeeded.
	Warning string `json:"warning,omitempty"`
	// RequestID correlates the response with the server's structured log
	// (also sent as the X-Request-Id header).
	RequestID uint64 `json:"request_id,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// createCollectionRequest is the /v1/collections POST body: the name
// plus the spec fields (metric, m, budget, quantize, ...) inline.
type createCollectionRequest struct {
	Name string `json:"name"`
	engine.Spec
}

type collectionInfo struct {
	Name string `json:"name"`
	// Vectors and Loaded describe open collections; an on-disk
	// collection not yet opened reports loaded=false and no count.
	Vectors int  `json:"vectors,omitempty"`
	Loaded  bool `json:"loaded"`
}

type listCollectionsResponse struct {
	Collections []collectionInfo `json:"collections"`
}

// createCollectionResponse is collectionInfo plus the request id that
// also tags the "collection created" log line.
type createCollectionResponse struct {
	collectionInfo
	RequestID uint64 `json:"request_id,omitempty"`
}

type dropCollectionResponse struct {
	Dropped   string `json:"dropped"`
	RequestID uint64 `json:"request_id,omitempty"`
}

// ---- handlers ----

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.requirePost(w, r, "search") {
		return
	}
	c := s.resolve(w, r, "search")
	if c == nil {
		return
	}
	// Decode into pooled scratch: the JSON decoder appends into the
	// previous request's query buffer instead of allocating a fresh
	// slice per request.
	sc := getSearchScratch()
	defer searchScratchPool.Put(sc)
	if err := json.NewDecoder(r.Body).Decode(&sc.req); err != nil {
		s.fail(w, c.name, "search", http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	req := &sc.req
	f, err := parseFilter(req.Filter)
	if err != nil {
		s.fail(w, c.name, "search", http.StatusBadRequest, fmt.Errorf("%w: %v", lccs.ErrInvalidFilter, err))
		return
	}
	paginated := req.Cursor != "" || req.Limit > 0
	if paginated && req.Limit <= 0 {
		s.fail(w, c.name, "search", http.StatusBadRequest, errors.New("\"limit\" must be positive when resuming a cursor"))
		return
	}
	reqID := s.reqID.Add(1)
	// Tracing: explicit opt-in via "trace": true, an "explain": true
	// plan request (the plan is assembled from spans), or the
	// configured deterministic sampling stride. The untraced path never
	// draws a trace from the pool; every Trace method is nil-safe, so
	// the span calls below vanish into a pointer check.
	var tr *obs.Trace
	if req.Trace || req.Explain || (s.sampleEvery > 0 && s.sampleSeq.Add(1)%s.sampleEvery == 0) {
		tr = obs.GetTrace(reqID)
		defer obs.PutTrace(tr)
	}
	// The cache is probed before admission: a hit costs microseconds and
	// touches no backend, so it must not occupy an execution slot or be
	// shed under overload. Obviously invalid requests never touch the
	// cache, so 400s do not pollute miss statistics or key space. The
	// key carries the collection name, the canonical filter encoding,
	// and the cursor token, so tenants, filtered variants of one query,
	// and successive pages can never alias each other's entries.
	kEff := req.K
	if paginated {
		kEff = req.Limit
	}
	cacheable := s.cache != nil && kEff > 0 && len(req.Query) > 0 && req.Budget >= 0
	cacheOutcome := ""
	var key string
	if cacheable {
		cacheStart := time.Now()
		key = cacheKey(c.name, c.gen.Load(), kEff, req.Budget, req.Query, s.quant, f, req.Cursor)
		res, next, ok := s.cache.get(key)
		cacheDur := time.Since(cacheStart)
		obs.ObserveDur(obs.StageCache, cacheDur)
		tr.AddSpan(obs.StageCache, -1, cacheStart, cacheDur)
		if ok {
			cacheOutcome = "hit"
			sc.out = toJSONInto(sc.out[:0], res)
			took := time.Since(start)
			s.met.latency.observe(took.Seconds())
			c.usage.AddCacheHit()
			c.usage.AddSearch(0, 0, 0, 0, 0)
			s.recordHealth(c, obs.HealthSample{Dur: took, CacheHit: true})
			resp := searchResponse{
				Neighbors:  sc.out,
				Cached:     true,
				NextCursor: next,
				TookMicros: took.Microseconds(),
			}
			if req.Explain {
				resp.Explain = buildExplain(c, kEff, req.Budget, f, nil, cacheOutcome, tr)
			}
			s.respondSearch(w, c, resp, reqID, tr, req.Trace)
			s.recordSlow(reqID, "search", c.name, f, start, took, kEff, req.Budget, tr)
			return
		}
		cacheOutcome = "miss"
	}
	admStart := time.Now()
	if ok := s.admit(w, r, "search", c); !ok {
		return
	}
	defer s.release(c)
	admDur := time.Since(admStart)
	obs.ObserveDur(obs.StageAdmission, admDur)
	tr.AddSpan(obs.StageAdmission, -1, admStart, admDur)

	var next string
	var res []lccs.Neighbor
	co := &sc.co
	if paginated {
		res, next, err = s.searchCursor(c, req.Query, req.Limit, req.Budget, f, req.Cursor)
	} else {
		res, err = s.search(c, req.Query, req.K, req.Budget, f, sc.res, co, tr)
	}
	if err != nil {
		s.fail(w, c.name, "search", statusFor(err), err)
		return
	}
	if !paginated {
		sc.res = res
	}
	if cacheable {
		// The cache retains its entries past this request, so it gets
		// its own copy rather than the pooled row.
		s.cache.put(key, append([]lccs.Neighbor(nil), res...), next)
		c.usage.AddCacheMiss()
	}
	encStart := time.Now()
	sc.out = toJSONInto(sc.out[:0], res)
	encDur := time.Since(encStart)
	obs.ObserveDur(obs.StageEncode, encDur)
	tr.AddSpan(obs.StageEncode, -1, encStart, encDur)
	took := time.Since(start)
	s.met.latency.observe(took.Seconds())
	c.usage.AddSearch(co.Comparisons, co.Candidates, co.Reranked, co.BytesScanned, co.FilterRejected)
	s.recordHealth(c, obs.HealthSample{
		Dur:          took,
		Comparisons:  co.Comparisons,
		BytesScanned: co.BytesScanned,
		CacheMiss:    cacheOutcome == "miss",
	})
	resp := searchResponse{
		Neighbors:  sc.out,
		NextCursor: next,
		TookMicros: took.Microseconds(),
	}
	if req.Explain {
		resp.Explain = buildExplain(c, req.K, req.Budget, f, co, cacheOutcome, tr)
	}
	s.respondSearch(w, c, resp, reqID, tr, req.Trace)
	s.recordSlow(reqID, "search", c.name, f, start, took, kEff, req.Budget, tr)
}

// respondSearch sends a search response. Only an explicit "trace": true
// request gets the span tree inline (plus the request id and the
// X-Request-Id header); sampler-selected traces feed the histograms and
// the slow-log reservoir without inflating client responses.
func (s *Server) respondSearch(w http.ResponseWriter, c *coll, resp searchResponse, reqID uint64, tr *obs.Trace, explicit bool) {
	if tr != nil && explicit {
		resp.Trace = tr.Tree()
	}
	if (tr != nil && explicit) || resp.Explain != nil {
		resp.RequestID = reqID
		w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
	}
	s.respond(w, c.name, "search", http.StatusOK, resp)
}

// recordSlow offers a finished search to the slow-query log and warns
// through the structured logger when it crossed the threshold. Entries
// carry the collection name and the hex of the canonical filter key
// (vec.Filter.AppendKey), so slow queries group by tenant and by
// predicate.
func (s *Server) recordSlow(reqID uint64, endpoint, collection string, f *lccs.Filter, start time.Time, took time.Duration, k, budget int, tr *obs.Trace) {
	thr := s.slow.Threshold()
	slow := thr > 0 && took >= thr
	if tr == nil && !slow {
		return // nothing to capture: neither traced nor over threshold
	}
	filterKey := ""
	if f != nil {
		filterKey = hex.EncodeToString(f.AppendKey(nil))
	}
	// tr.Tree is passed as a thunk: the log materializes the span tree
	// only for entries it actually keeps, so a traced request that the
	// reservoir rejects costs no tree allocation. Tree is nil-safe, so
	// the method value works for untraced-but-slow requests too.
	s.slow.Record(obs.SlowEntry{
		RequestID:  reqID,
		Endpoint:   endpoint,
		Collection: collection,
		Time:       start,
		DurUS:      float64(took) / float64(time.Microsecond),
		K:          k,
		Budget:     budget,
		Filter:     filterKey,
		Traced:     tr != nil,
	}, tr.Tree)
	if slow {
		s.logger.Warn("slow query",
			"request_id", reqID, "endpoint", endpoint, "collection", collection,
			"filter", filterKey, "took", took,
			"k", k, "budget", budget, "traced", tr != nil)
	}
}

// search runs an unpaginated query through the backend's one search
// body, which covers filter + cost record + trace at once; co is filled
// in place (the caller passes pooled scratch, so accounting allocates
// nothing) and results are appended into the pooled dst row. A budget
// of 0 selects the collection's default; a negative budget is the
// client's error, not a request for the default.
func (s *Server) search(c *coll, q []float32, k, budget int, f *lccs.Filter, dst []lccs.Neighbor, co *lccs.Cost, tr *obs.Trace) ([]lccs.Neighbor, error) {
	if budget < 0 {
		return dst, lccs.ErrInvalidBudget
	}
	return c.backend.SearchCostInto(q, k, budget, f, dst, co, tr)
}

// searchCursor runs a paginated query through the backend's cursor path.
func (s *Server) searchCursor(c *coll, q []float32, limit, budget int, f *lccs.Filter, cursor string) ([]lccs.Neighbor, string, error) {
	if budget < 0 {
		return nil, "", lccs.ErrInvalidBudget
	}
	return c.backend.SearchCursor(q, limit, budget, f, cursor)
}

func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.requirePost(w, r, "search_batch") {
		return
	}
	c := s.resolve(w, r, "search_batch")
	if c == nil {
		return
	}
	// A batch holds one admission slot from before its body is decoded:
	// batch bodies are the large ones, so decode memory must count
	// against the concurrency bound too. The backend's own batch engine
	// parallelizes across cores. The result cache is bypassed: batch
	// workloads are throughput-oriented and would churn the LRU.
	if ok := s.admit(w, r, "search_batch", c); !ok {
		return
	}
	defer s.release(c)
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, c.name, "search_batch", http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}

	var rows [][]lccs.Neighbor
	var err error
	switch {
	case req.Budget > 0:
		rows, err = c.backend.SearchBatchBudget(req.Queries, req.K, req.Budget)
	case req.Budget < 0:
		err = lccs.ErrInvalidBudget
	default:
		rows, err = c.backend.SearchBatch(req.Queries, req.K)
	}
	if err != nil {
		s.fail(w, c.name, "search_batch", statusFor(err), err)
		return
	}
	out := make([][]neighborJSON, len(rows))
	for i, row := range rows {
		out[i] = toJSON(row)
	}
	took := time.Since(start)
	s.met.latency.observe(took.Seconds())
	// The batch engine's internal path does not surface per-query cost
	// records; the batch still counts toward the health rings as one
	// request with its end-to-end latency.
	s.recordHealth(c, obs.HealthSample{Dur: took})
	s.respond(w, c.name, "search_batch", http.StatusOK, batchResponse{
		Results:    out,
		TookMicros: took.Microseconds(),
	})
}

// parseAttrs translates wire attribute rows into library attribute
// rows; nil rows (JSON null) stay nil.
func parseAttrs(rows []map[string]any) ([]lccs.Attrs, error) {
	out := make([]lccs.Attrs, len(rows))
	for i, row := range rows {
		if len(row) == 0 {
			continue
		}
		a := make(lccs.Attrs, len(row))
		for key, v := range row {
			switch val := v.(type) {
			case string:
				a[key] = lccs.StrAttr(val)
			case float64:
				if val != math.Trunc(val) || math.Abs(val) >= 1<<53 {
					return nil, fmt.Errorf("attrs[%d].%s: %v is not an integer", i, key, val)
				}
				a[key] = lccs.IntAttr(int64(val))
			default:
				return nil, fmt.Errorf("attrs[%d].%s: values must be strings or integers", i, key)
			}
		}
		out[i] = a
	}
	return out, nil
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.requirePost(w, r, "insert") {
		return
	}
	c := s.resolve(w, r, "insert")
	if c == nil {
		return
	}
	reqID := s.reqID.Add(1)
	if c.dyn == nil {
		s.fail(w, c.name, "insert", http.StatusNotImplemented,
			errors.New("backend is read-only: inserts need a DynamicIndex (-dynamic)"))
		return
	}
	// Inserts go through admission too: the append itself is cheap, but
	// decoding a vector batch is not, and it must not bypass the
	// concurrency bound.
	if ok := s.admit(w, r, "insert", c); !ok {
		return
	}
	defer s.release(c)
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, c.name, "insert", http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Vectors) == 0 {
		s.fail(w, c.name, "insert", http.StatusBadRequest, errors.New("no vectors in request"))
		return
	}
	var attrs []lccs.Attrs
	if req.Attrs != nil {
		if len(req.Attrs) != len(req.Vectors) {
			s.fail(w, c.name, "insert", http.StatusBadRequest,
				fmt.Errorf("%w: %d attr rows for %d vectors", lccs.ErrAttrsMismatch, len(req.Attrs), len(req.Vectors)))
			return
		}
		var err error
		attrs, err = parseAttrs(req.Attrs)
		if err != nil {
			s.fail(w, c.name, "insert", http.StatusBadRequest, err)
			return
		}
	}
	// Validate the whole batch up front so rejections are atomic:
	// either every vector goes in or none does. The batch must be
	// internally consistent and, when the backend already knows its
	// dimensionality, match it.
	dim := c.dyn.Dim()
	for i, v := range req.Vectors {
		if len(v) == 0 {
			s.fail(w, c.name, "insert", http.StatusBadRequest,
				fmt.Errorf("vector %d: %w", i, lccs.ErrEmptyVector))
			return
		}
		if dim == 0 {
			dim = len(v)
		}
		if len(v) != dim {
			s.fail(w, c.name, "insert", http.StatusBadRequest,
				fmt.Errorf("vector %d: %w: has %d dimensions, want %d", i, lccs.ErrDimensionMismatch, len(v), dim))
			return
		}
	}
	walBefore := walAppended(c)
	ids, warning, failCode, failErr := s.applyInserts(c, req.Vectors, attrs)
	walBytes := walAppended(c) - walBefore
	if failErr != nil {
		// Earlier vectors of the batch may already be in — bump the
		// generation so their results become visible, and return their
		// ids so the client can recover without duplicating them. (On a
		// durability failure the applied ids are in memory but possibly
		// not on disk; the 5xx tells the client not to trust them.)
		if len(ids) > 0 {
			c.gen.Add(1)
			c.inserts.Add(uint64(len(ids)))
			c.usage.AddInsert(len(ids), walBytes)
		}
		c.usage.AddError()
		s.recordHealth(c, obs.HealthSample{Dur: -1, Err: true, WALBytes: walBytes})
		w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
		s.met.countRequest(c.name, "insert", failCode)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(failCode)
		_ = json.NewEncoder(w).Encode(struct {
			errorResponse
			IDs       []int  `json:"ids"`
			RequestID uint64 `json:"request_id,omitempty"`
		}{errorResponse{Error: failErr.Error()}, ids, reqID})
		return
	}
	c.gen.Add(1) // invalidate every cached result of this collection
	c.inserts.Add(uint64(len(ids)))
	c.usage.AddInsert(len(ids), walBytes)
	took := time.Since(start)
	s.recordHealth(c, obs.HealthSample{Dur: took, WALBytes: walBytes})
	s.logger.Debug("insert",
		"request_id", reqID, "collection", c.name,
		"vectors", len(ids), "wal_bytes", walBytes, "took", took)
	w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
	s.respond(w, c.name, "insert", http.StatusOK, insertResponse{IDs: ids, Warning: warning, RequestID: reqID})
}

// applyInserts pushes a pre-validated vector batch (with optional
// aligned attrs) into the collection. On a durable collection the whole
// batch is one journal append — and, crucially, the call returns only
// once the batch is durable per the configured sync policy, so a 200
// never acknowledges a write a crash could lose. A durability failure
// is a 503 (the write may be applied in memory but not on disk); a
// rejected vector is a 400. A deferred background-build failure is
// reported as a warning alongside success, matching DynamicIndex.Add's
// documented semantics.
func (s *Server) applyInserts(c *coll, vectors [][]float32, attrs []lccs.Attrs) (ids []int, warning string, failCode int, failErr error) {
	if c.dur != nil {
		if attrs == nil {
			return s.finishBatch(c.dur.AddBatch(vectors))
		}
		return s.finishBatch(c.dur.AddBatchWithAttrs(vectors, attrs))
	}
	ids = make([]int, 0, len(vectors))
	for i, v := range vectors {
		var a lccs.Attrs
		if attrs != nil {
			a = attrs[i]
		}
		id, err := c.dyn.AddWithAttrs(v, a)
		switch {
		case err != nil && isRejectedInsert(err):
			// Unreachable after pre-validation; kept so a rejected
			// vector can never be acknowledged.
			return ids, "", http.StatusBadRequest, fmt.Errorf("vector %d rejected: %w", i, err)
		case err != nil:
			// DynamicIndex.Add surfaces a *previous* background build
			// failure here while the insert itself succeeded — keep the
			// id and pass the condition on as a warning.
			warning = err.Error()
		}
		ids = append(ids, id)
	}
	return ids, warning, 0, nil
}

// finishBatch classifies a bulk-insert result into the applyInserts
// return shape.
func (s *Server) finishBatch(ids []int, err error) ([]int, string, int, error) {
	switch {
	case err == nil:
		return ids, "", 0, nil
	case errors.Is(err, lccs.ErrNotDurable):
		return ids, "", http.StatusServiceUnavailable, err
	case errors.Is(err, lccs.ErrAttrsMismatch), isRejectedInsert(err):
		return ids, "", http.StatusBadRequest, err
	}
	return ids, err.Error(), 0, nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.requirePost(w, r, "delete") {
		return
	}
	c := s.resolve(w, r, "delete")
	if c == nil {
		return
	}
	reqID := s.reqID.Add(1)
	if c.dyn == nil {
		s.fail(w, c.name, "delete", http.StatusNotImplemented,
			errors.New("backend cannot delete: deletes need a DynamicIndex (-dynamic)"))
		return
	}
	// Deletes share the admission bound: each one takes the backend's
	// write lock, so a flood of them must not bypass the concurrency
	// controls that protect searches.
	if ok := s.admit(w, r, "delete", c); !ok {
		return
	}
	defer s.release(c)
	var req deleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, c.name, "delete", http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	ids := req.IDs
	if req.ID != nil {
		ids = append([]int{*req.ID}, ids...)
	}
	if len(ids) == 0 {
		s.fail(w, c.name, "delete", http.StatusBadRequest, errors.New("no ids in request"))
		return
	}
	// On a durable collection the delete is acknowledged only after it
	// is journaled per the sync policy — the whole batch under a single
	// group-committed wait — and a journal failure turns into a 503
	// instead of a silently non-durable 200.
	walBefore := walAppended(c)
	var resp deleteResponse
	if c.dur != nil {
		deleted, missing, err := c.dur.DeleteBatch(ids)
		resp.Deleted, resp.Missing = deleted, missing
		if err != nil {
			if deleted > 0 {
				c.gen.Add(1)
				c.deletes.Add(uint64(deleted))
				c.usage.AddDelete(deleted, walAppended(c)-walBefore)
			}
			s.fail(w, c.name, "delete", http.StatusServiceUnavailable, err)
			return
		}
	} else {
		for _, id := range ids {
			if c.dyn.Delete(id) {
				resp.Deleted++
			} else {
				resp.Missing = append(resp.Missing, id)
			}
		}
	}
	if resp.Deleted > 0 {
		// A delete changes every query's answer set: bump the write
		// generation so stale cached results can never be served.
		c.gen.Add(1)
		c.deletes.Add(uint64(resp.Deleted))
	}
	walBytes := walAppended(c) - walBefore
	c.usage.AddDelete(resp.Deleted, walBytes)
	took := time.Since(start)
	s.recordHealth(c, obs.HealthSample{Dur: took, WALBytes: walBytes})
	s.logger.Debug("delete",
		"request_id", reqID, "collection", c.name,
		"deleted", resp.Deleted, "missing", len(resp.Missing),
		"wal_bytes", walBytes, "took", took)
	resp.RequestID = reqID
	w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
	s.respond(w, c.name, "delete", http.StatusOK, resp)
}

// isRejectedInsert reports whether an Add error means the
// vector was rejected (DynamicIndex's validation errors), as opposed to
// a deferred background-build failure delivered alongside a successful
// insert.
func isRejectedInsert(err error) bool {
	return errors.Is(err, lccs.ErrEmptyVector) || errors.Is(err, lccs.ErrDimensionMismatch) || errors.Is(err, lccs.ErrNonFiniteVector)
}

// ---- collection registry endpoints ----

func (s *Server) handleCollCreate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req createCollectionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, "", "collections_create", http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	reqID := s.reqID.Add(1)
	ec, err := s.eng.Create(req.Name, req.Spec)
	if err != nil {
		s.fail(w, "", "collections_create", engineStatus(err), err)
		return
	}
	s.cmu.Lock()
	s.colls[req.Name] = newColl(ec)
	s.cmu.Unlock()
	s.logger.Info("collection created", "request_id", reqID, "collection", req.Name)
	w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
	s.respond(w, "", "collections_create", http.StatusCreated, createCollectionResponse{
		collectionInfo: collectionInfo{Name: req.Name, Vectors: ec.Backend().Len(), Loaded: true},
		RequestID:      reqID,
	})
}

func (s *Server) handleCollList(w http.ResponseWriter, r *http.Request) {
	names := s.eng.List()
	out := listCollectionsResponse{Collections: make([]collectionInfo, 0, len(names))}
	s.cmu.RLock()
	for _, name := range names {
		info := collectionInfo{Name: name}
		if c, ok := s.colls[name]; ok {
			info.Loaded = true
			info.Vectors = c.backend.Len()
		}
		out.Collections = append(out.Collections, info)
	}
	s.cmu.RUnlock()
	s.respond(w, "", "collections_list", http.StatusOK, out)
}

func (s *Server) handleCollDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	reqID := s.reqID.Add(1)
	if err := s.eng.Drop(name); err != nil {
		s.fail(w, "", "collections_drop", engineStatus(err), err)
		return
	}
	s.cmu.Lock()
	delete(s.colls, name)
	s.cmu.Unlock()
	if s.cache != nil {
		// A future collection under the same name restarts its write
		// generation at zero; flushing now makes key collisions with the
		// dead tenant impossible.
		s.cache.clear()
	}
	s.logger.Info("collection dropped", "request_id", reqID, "collection", name)
	w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
	s.respond(w, "", "collections_drop", http.StatusOK, dropCollectionResponse{Dropped: name, RequestID: reqID})
}

func (s *Server) handleCollStats(w http.ResponseWriter, r *http.Request) {
	c := s.resolve(w, r, "stats")
	if c == nil {
		return
	}
	s.respond(w, c.name, "stats", http.StatusOK, s.collStats(c))
}

// ---- stats ----

// Stats is the /v1/stats payload. The top-level request/insert/delete
// counters aggregate across collections; Backend and WAL describe the
// default collection when one exists (the legacy single-index shape
// monitoring already scrapes). Collections breaks everything out per
// collection.
type Stats struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      map[string]uint64 `json:"requests"` // "endpoint:code" → count
	InFlight      int               `json:"in_flight"`
	QueueDepth    int64             `json:"queue_depth"`
	Rejected      uint64            `json:"admission_rejected"`
	WaitTimeouts  uint64            `json:"admission_wait_timeouts"`
	Inserts       uint64            `json:"inserts"`
	Deletes       uint64            `json:"deletes"`
	Cache         CacheStats        `json:"cache"`
	Latency       LatencyStats      `json:"latency"`
	Backend       BackendStats      `json:"backend"`
	// WAL reports write-ahead-log health on durable backends: depth
	// (records a crash would replay), segment footprint, and fsync
	// latency. Absent otherwise.
	WAL *lccs.WALStats `json:"wal,omitempty"`
	// Collections breaks the same figures out per collection.
	Collections map[string]CollectionStats `json:"collections,omitempty"`
}

// CollectionStats is one collection's slice of the operational stats.
type CollectionStats struct {
	Requests map[string]uint64 `json:"requests"` // "endpoint:code" → count
	Inserts  uint64            `json:"inserts"`
	Deletes  uint64            `json:"deletes"`
	// InFlight counts this collection's currently admitted requests;
	// QuotaRejected counts rejections by the per-collection share.
	InFlight      int64          `json:"in_flight"`
	QuotaRejected uint64         `json:"quota_rejected"`
	Backend       BackendStats   `json:"backend"`
	WAL           *lccs.WALStats `json:"wal,omitempty"`
}

// CacheStats summarizes the result cache.
type CacheStats struct {
	Enabled   bool    `json:"enabled"`
	Entries   int     `json:"entries"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// LatencyStats summarizes the search latency histogram.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// BackendStats describes the index behind one collection.
type BackendStats struct {
	Kind     string `json:"kind"`
	Vectors  int    `json:"vectors"`
	Shards   int    `json:"shards,omitempty"`
	Buffered int    `json:"buffered,omitempty"`
	// Tombstones counts deleted vectors whose rows await compaction.
	Tombstones int  `json:"tombstones,omitempty"`
	Writable   bool `json:"writable"`
}

// loadedColls returns the resolved collections sorted by name.
func (s *Server) loadedColls() []*coll {
	s.cmu.RLock()
	defer s.cmu.RUnlock()
	out := make([]*coll, 0, len(s.colls))
	for _, c := range s.colls {
		out = append(out, c)
	}
	sortColls(out)
	return out
}

func sortColls(cs []*coll) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].name < cs[j-1].name; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// collStats assembles one collection's stats.
func (s *Server) collStats(c *coll) CollectionStats {
	keys, counts := s.met.requestsSnapshot()
	reqs := make(map[string]uint64)
	for _, k := range keys {
		if k.collection == c.name {
			reqs[fmt.Sprintf("%s:%d", k.endpoint, k.code)] = counts[k]
		}
	}
	st := CollectionStats{
		Requests:      reqs,
		Inserts:       c.inserts.Load(),
		Deletes:       c.deletes.Load(),
		InFlight:      c.occupancy.Load(),
		QuotaRejected: c.quotaRejected.Load(),
		Backend:       backendStats(c),
	}
	if c.dur != nil {
		ws := c.dur.WALStats()
		st.WAL = &ws
	}
	return st
}

// StatsSnapshot assembles the current Stats (also used by /v1/stats).
func (s *Server) StatsSnapshot() Stats {
	keys, counts := s.met.requestsSnapshot()
	reqs := make(map[string]uint64, len(keys))
	for _, k := range keys {
		// Aggregate across collections under the legacy "endpoint:code"
		// keys.
		reqs[fmt.Sprintf("%s:%d", k.endpoint, k.code)] += counts[k]
	}
	st := Stats{
		UptimeSeconds: time.Since(s.met.start).Seconds(),
		Requests:      reqs,
		InFlight:      s.adm.inFlight(),
		QueueDepth:    s.adm.queueDepth(),
		Rejected:      s.adm.rejected.Load(),
		WaitTimeouts:  s.adm.timeouts.Load(),
	}
	colls := s.loadedColls()
	st.Collections = make(map[string]CollectionStats, len(colls))
	for _, c := range colls {
		cst := s.collStats(c)
		st.Collections[c.name] = cst
		st.Inserts += cst.Inserts
		st.Deletes += cst.Deletes
		if c.name == DefaultCollection {
			st.Backend = cst.Backend
			st.WAL = cst.WAL
		}
	}
	_, sum, total := s.met.latency.snapshot()
	st.Latency = LatencyStats{
		Count: total,
		P50Ms: s.met.latency.quantile(0.50) * 1000,
		P99Ms: s.met.latency.quantile(0.99) * 1000,
	}
	if total > 0 {
		st.Latency.MeanMs = sum / float64(total) * 1000
	}
	if s.cache != nil {
		hits, misses, evictions := s.cache.stats()
		st.Cache = CacheStats{Enabled: true, Entries: s.cache.len(), Hits: hits, Misses: misses, Evictions: evictions}
		if hits+misses > 0 {
			st.Cache.HitRate = float64(hits) / float64(hits+misses)
		}
	}
	return st
}

// backendStats inspects the concrete facade behind one collection.
func backendStats(c *coll) BackendStats {
	b := BackendStats{Vectors: c.backend.Len(), Writable: c.dyn != nil}
	switch ix := c.backend.(type) {
	case *lccs.Index:
		b.Kind = "index"
	case *lccs.ShardedIndex:
		b.Kind = "sharded"
		b.Shards = ix.Shards()
	case *lccs.DynamicIndex:
		b.Kind = "dynamic"
		b.Shards = ix.Shards()
		b.Buffered = ix.Buffered()
		b.Tombstones = ix.Deleted()
	case *lccs.DurableIndex:
		b.Kind = "durable"
		b.Shards = ix.Shards()
		b.Buffered = ix.Buffered()
		b.Tombstones = ix.Deleted()
	default:
		b.Kind = "custom"
	}
	return b
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.respond(w, "", "stats", http.StatusOK, s.StatsSnapshot())
}

func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.fail(w, "", "debug_slow", http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	slow, sample := s.slow.Snapshot()
	if slow == nil {
		slow = []obs.SlowEntry{}
	}
	if sample == nil {
		sample = []obs.SlowEntry{}
	}
	s.respond(w, "", "debug_slow", http.StatusOK, slowLogResponse{
		ThresholdUS: float64(s.slow.Threshold()) / float64(time.Microsecond),
		Slow:        slow,
		Sample:      sample,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.respond(w, "", "healthz", http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.respond(w, "", "healthz", http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	colls := s.loadedColls()
	var totInserts, totDeletes, totTombstones, totVectors float64
	type collFig struct {
		name                       string
		bs                         BackendStats
		inserts, deletes, quotaRej float64
		occupancy                  float64
		hasDeleter                 bool
	}
	figs := make([]collFig, 0, len(colls))
	for _, c := range colls {
		bs := backendStats(c)
		figs = append(figs, collFig{
			name: c.name, bs: bs,
			inserts:    float64(c.inserts.Load()),
			deletes:    float64(c.deletes.Load()),
			quotaRej:   float64(c.quotaRejected.Load()),
			occupancy:  float64(c.occupancy.Load()),
			hasDeleter: c.dyn != nil,
		})
		totInserts += float64(c.inserts.Load())
		totDeletes += float64(c.deletes.Load())
		totTombstones += float64(bs.Tombstones)
		totVectors += float64(bs.Vectors)
	}
	counters := []gauge{
		{name: "lccs_admission_rejected_total", help: "Requests rejected because the admission queue was full.", value: float64(s.adm.rejected.Load())},
		{name: "lccs_admission_wait_timeouts_total", help: "Requests whose deadline expired while waiting for a slot.", value: float64(s.adm.timeouts.Load())},
		{name: "lccs_inserts_total", help: "Vectors inserted across all collections.", value: totInserts},
		{name: "lccs_deletes_total", help: "Vectors tombstoned across all collections.", value: totDeletes},
	}
	gauges := []gauge{
		{name: "lccs_inflight_requests", help: "Requests currently holding an admission slot.", value: float64(s.adm.inFlight())},
		{name: "lccs_admission_queue_depth", help: "Requests waiting for an admission slot.", value: float64(s.adm.queueDepth())},
		{name: "lccs_index_vectors", help: "Vectors searchable across all collections.", value: totVectors},
	}
	anyDeleter := false
	for _, f := range figs {
		if f.hasDeleter {
			anyDeleter = true
		}
	}
	if anyDeleter {
		gauges = append(gauges,
			gauge{name: "lccs_index_tombstones", help: "Deleted vectors awaiting compaction.", value: totTombstones})
	}
	// Per-collection series (same-family samples adjacent: writeProm
	// emits HELP/TYPE once per family).
	for _, f := range figs {
		counters = append(counters, gauge{name: "lccs_collection_inserts_total",
			help: "Vectors inserted, by collection.", value: f.inserts, labels: collLabel(f.name)})
	}
	for _, f := range figs {
		counters = append(counters, gauge{name: "lccs_collection_deletes_total",
			help: "Vectors tombstoned, by collection.", value: f.deletes, labels: collLabel(f.name)})
	}
	for _, f := range figs {
		counters = append(counters, gauge{name: "lccs_collection_quota_rejected_total",
			help: "Requests rejected by the per-collection concurrency share.", value: f.quotaRej, labels: collLabel(f.name)})
	}
	for _, f := range figs {
		gauges = append(gauges, gauge{name: "lccs_collection_vectors",
			help: "Vectors searchable, by collection.", value: float64(f.bs.Vectors), labels: collLabel(f.name)})
	}
	for _, f := range figs {
		gauges = append(gauges, gauge{name: "lccs_collection_tombstones",
			help: "Deleted vectors awaiting compaction, by collection.", value: float64(f.bs.Tombstones), labels: collLabel(f.name)})
	}
	for _, f := range figs {
		gauges = append(gauges, gauge{name: "lccs_collection_inflight",
			help: "Admitted in-flight requests, by collection.", value: f.occupancy, labels: collLabel(f.name)})
	}
	// Per-collection usage metering (cumulative resource accounting from
	// engine.Usage; same adjacency rule as above).
	type collUse struct {
		name string
		us   engine.UsageSnapshot
	}
	uses := make([]collUse, 0, len(colls))
	for _, c := range colls {
		uses = append(uses, collUse{c.name, c.usage.Snapshot()})
	}
	for _, u := range uses {
		counters = append(counters, gauge{name: "lccs_collection_searches_total",
			help: "Search requests served (backend or cache), by collection.", value: float64(u.us.Searches), labels: collLabel(u.name)})
	}
	for _, u := range uses {
		counters = append(counters, gauge{name: "lccs_collection_scan_bytes_total",
			help: "Vector bytes read by the distance kernels, by collection.", value: float64(u.us.BytesScanned), labels: collLabel(u.name)})
	}
	for _, u := range uses {
		counters = append(counters, gauge{name: "lccs_collection_cost_units_total",
			help: "Derived query cost units (comparisons + scan bytes / 4), by collection.", value: float64(u.us.CostUnits), labels: collLabel(u.name)})
	}
	for _, u := range uses {
		counters = append(counters, gauge{name: "lccs_collection_filter_rejected_total",
			help: "Candidates discarded by metadata predicates, by collection.", value: float64(u.us.FilterRejected), labels: collLabel(u.name)})
	}
	for _, u := range uses {
		counters = append(counters, gauge{name: "lccs_collection_cache_hits_total",
			help: "Result-cache hits, by collection.", value: float64(u.us.CacheHits), labels: collLabel(u.name)})
	}
	for _, u := range uses {
		counters = append(counters, gauge{name: "lccs_collection_cache_misses_total",
			help: "Result-cache misses, by collection.", value: float64(u.us.CacheMisses), labels: collLabel(u.name)})
	}
	for _, u := range uses {
		counters = append(counters, gauge{name: "lccs_collection_wal_appended_bytes_total",
			help: "Journal bytes appended by this collection's writes.", value: float64(u.us.WALBytes), labels: collLabel(u.name)})
	}
	for _, u := range uses {
		counters = append(counters, gauge{name: "lccs_collection_errors_total",
			help: "Failed requests, by collection.", value: float64(u.us.Errors), labels: collLabel(u.name)})
	}
	if s.cache != nil {
		hits, misses, evictions := s.cache.stats()
		counters = append(counters,
			gauge{name: "lccs_cache_hits_total", help: "Result cache hits.", value: float64(hits)},
			gauge{name: "lccs_cache_misses_total", help: "Result cache misses.", value: float64(misses)},
			gauge{name: "lccs_cache_evictions_total", help: "Result cache LRU evictions.", value: float64(evictions)},
		)
		gauges = append(gauges,
			gauge{name: "lccs_cache_entries", help: "Live result cache entries.", value: float64(s.cache.len())})
	}
	// WAL health, by collection (the legacy unlabeled series kept for
	// the default collection).
	for _, c := range colls {
		if c.dur == nil {
			continue
		}
		ws := c.dur.WALStats()
		if c.name == DefaultCollection {
			counters = append(counters,
				gauge{name: "lccs_wal_fsyncs_total", help: "Write-ahead log fsync calls.", value: float64(ws.Fsyncs)})
			gauges = append(gauges,
				gauge{name: "lccs_wal_depth_records", help: "Records held only by the write-ahead log (replayed on crash recovery).", value: float64(ws.Depth)},
				gauge{name: "lccs_wal_segments", help: "Live write-ahead log segment files.", value: float64(ws.Segments)},
				gauge{name: "lccs_wal_bytes", help: "Total size of live write-ahead log segments.", value: float64(ws.Bytes)},
				gauge{name: "lccs_wal_last_fsync_seconds", help: "Latency of the most recent WAL fsync.", value: ws.LastFsyncMicros / 1e6},
				gauge{name: "lccs_wal_synced_lsn", help: "Highest log sequence number known fsynced.", value: float64(ws.SyncedLSN)},
			)
		}
	}
	for _, c := range colls {
		if c.dur == nil {
			continue
		}
		ws := c.dur.WALStats()
		gauges = append(gauges, gauge{name: "lccs_collection_wal_depth_records",
			help: "WAL records a crash would replay, by collection.", value: float64(ws.Depth), labels: collLabel(c.name)})
	}
	gets, misses := obs.PoolStats()
	counters = append(counters,
		gauge{name: "lccs_trace_pool_gets_total", help: "Traces drawn from the span pool.", value: float64(gets)},
		gauge{name: "lccs_trace_pool_misses_total", help: "Trace pool gets that allocated a fresh trace.", value: float64(misses)},
	)
	hitRate := 0.0
	if gets > 0 {
		hitRate = float64(gets-misses) / float64(gets)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauges = append(gauges,
		gauge{name: "lccs_trace_pool_hit_rate", help: "Fraction of trace pool gets served without allocating.", value: hitRate},
		gauge{name: "lccs_goroutines", help: "Live goroutines.", value: float64(runtime.NumGoroutine())},
		gauge{name: "lccs_heap_alloc_bytes", help: "Bytes of allocated heap objects.", value: float64(ms.HeapAlloc)},
		gauge{name: "lccs_gc_runs_total", help: "Completed garbage-collection cycles.", value: float64(ms.NumGC)},
		gauge{name: "lccs_gc_pause_last_seconds", help: "Duration of the most recent GC stop-the-world pause.", value: float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9},
	)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.countRequest("", "metrics", http.StatusOK)
	s.met.writeProm(w, counters, gauges)
	obs.WriteStageMetrics(w)
	fmt.Fprintf(w, "# HELP lccs_build_info Build metadata; the value is always 1.\n")
	fmt.Fprintf(w, "# TYPE lccs_build_info gauge\n")
	fmt.Fprintf(w, "lccs_build_info{version=%q,go=%q} 1\n", s.version, runtime.Version())
}

// collLabel renders the collection label set of one series.
func collLabel(name string) string { return fmt.Sprintf("{collection=%q}", name) }

// ---- plumbing ----

// admit runs the admission controller for one request: first the
// collection's concurrency share, then the global semaphore. It answers
// 503 (with a load-derived Retry-After) on share exhaustion, queue
// overflow, or admission deadline, and reports whether the caller now
// holds a slot (to be returned via release).
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string, c *coll) bool {
	if c != nil {
		if occ := c.occupancy.Add(1); s.collShare > 0 && occ > s.collShare {
			c.occupancy.Add(-1)
			c.quotaRejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			s.recordHealth(c, obs.HealthSample{Rejected: true})
			s.fail(w, c.name, endpoint, http.StatusServiceUnavailable,
				fmt.Errorf("collection %q is over its concurrency share (%d in flight)", c.name, s.collShare))
			return false
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		if c != nil {
			c.occupancy.Add(-1)
		}
		s.recordHealth(c, obs.HealthSample{Rejected: true})
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		msg := err
		if errors.Is(err, context.DeadlineExceeded) {
			msg = fmt.Errorf("server: admission wait exceeded %v", s.timeout)
		}
		name := ""
		if c != nil {
			name = c.name
		}
		s.fail(w, name, endpoint, http.StatusServiceUnavailable, msg)
		return false
	}
	return true
}

// release returns the slot taken by a successful admit.
func (s *Server) release(c *coll) {
	s.adm.release()
	if c != nil {
		c.occupancy.Add(-1)
	}
}

// retryAfterSeconds estimates how long a shed client should back off:
// the time for the current queue to drain through the execution slots
// at the observed median latency. Before any latency has been observed
// the admission deadline stands in — a client retrying sooner would
// most likely queue up to that deadline again anyway.
func (s *Server) retryAfterSeconds() int {
	return retryAfterSeconds(s.adm.queueDepth(), s.adm.capacity(),
		s.met.latency.quantile(0.50), s.timeout.Seconds())
}

// retryAfterSeconds is the pure calculation behind the Retry-After
// header: (queued+1) requests draining through slots execution lanes at
// p50 seconds each, rounded up and clamped to [1s, 60s]. p50 ≤ 0 (no
// observations yet) falls back to the admission deadline.
func retryAfterSeconds(queued int64, slots int, p50, timeoutSec float64) int {
	if p50 <= 0 {
		p50 = timeoutSec
	}
	if slots < 1 {
		slots = 1
	}
	wait := float64(queued+1) * p50 / float64(slots)
	sec := int(math.Ceil(wait))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// requirePost enforces the method and caps the request body, so an
// oversized post fails during decoding instead of buffering unbounded
// data outside the admission controller's resource bounds.
func (s *Server) requirePost(w http.ResponseWriter, r *http.Request, endpoint string) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, "", endpoint, http.StatusMethodNotAllowed, errors.New("use POST"))
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	return true
}

// statusFor maps backend errors to HTTP statuses: the facade's typed
// validation errors are the client's fault (400), a stale cursor is
// 410 Gone (the token was valid once; the client restarts the scan),
// anything else is 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, lccs.ErrCursorStale):
		return http.StatusGone
	case errors.Is(err, lccs.ErrInvalidK),
		errors.Is(err, lccs.ErrInvalidBudget),
		errors.Is(err, lccs.ErrEmptyQuery),
		errors.Is(err, lccs.ErrDimensionMismatch),
		errors.Is(err, lccs.ErrNonFiniteQuery),
		errors.Is(err, lccs.ErrInvalidFilter),
		errors.Is(err, lccs.ErrCursorInvalid):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) respond(w http.ResponseWriter, collection, endpoint string, code int, body any) {
	s.met.countRequest(collection, endpoint, code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) fail(w http.ResponseWriter, collection, endpoint string, code int, err error) {
	s.respond(w, collection, endpoint, code, errorResponse{Error: err.Error()})
	// Fold the failure into the health rings and the collection's error
	// counter. Dur < 0 counts the request without a latency observation,
	// so an error storm cannot drag the latency percentiles toward zero.
	var c *coll
	if collection != "" {
		s.cmu.RLock()
		c = s.colls[collection]
		s.cmu.RUnlock()
	}
	if c != nil {
		c.usage.AddError()
	}
	s.recordHealth(c, obs.HealthSample{Dur: -1, Err: true})
}

func toJSON(res []lccs.Neighbor) []neighborJSON {
	return toJSONInto(make([]neighborJSON, 0, len(res)), res)
}

// toJSONInto appends the wire form of res to dst; with pooled dst the
// conversion allocates nothing at steady state.
func toJSONInto(dst []neighborJSON, res []lccs.Neighbor) []neighborJSON {
	for _, nb := range res {
		dst = append(dst, neighborJSON{ID: nb.ID, Dist: nb.Dist})
	}
	return dst
}
