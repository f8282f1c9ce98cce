// Package engine is the multi-tenant collection registry behind the
// daemon: named collections, each an independently configured index
// (its own metric, hash length, quantization, durability directory),
// created, dropped, and listed at runtime. The registry owns collection
// lifecycle — creation writes a COLLECTION.json spec next to the
// collection's durable state, restarts lazily reopen collections from
// those specs on first use — while the HTTP layer (internal/server)
// owns request routing, admission, and per-collection metrics.
//
// Two storage modes, chosen by the registry root:
//
//   - A rooted engine (New with a directory) stores each collection
//     under <root>/collections/<name>/ as a durable data dir (WAL +
//     snapshot, see lccs.OpenDurable); every acknowledged write
//     survives a crash.
//   - A rootless engine (New with "") creates memory-only collections
//     backed by a DynamicIndex — the file-mode daemon's behavior,
//     where persistence is the operator's explicit snapshot.
//
// A pre-built backend (the legacy single-index serving modes) joins the
// registry through Adopt, typically under the name "default"; adopted
// collections are not droppable and own no directory.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"lccs"
)

// Errors of the registry API. The HTTP layer maps NotFound to 404,
// Exists to 409, and the validation errors to 400.
var (
	ErrNotFound    = errors.New("engine: collection not found")
	ErrExists      = errors.New("engine: collection already exists")
	ErrBadName     = errors.New("engine: invalid collection name")
	ErrAdopted     = errors.New("engine: adopted collection has no managed storage")
	ErrClosed      = errors.New("engine: engine is closed")
	ErrInvalidSpec = errors.New("engine: invalid collection spec")
)

// nameRE bounds collection names to path- and label-safe tokens: they
// appear in directory names, URLs, and Prometheus label values.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}$`)

// ValidateName reports whether name is a legal collection name.
func ValidateName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("%w: %q (want [a-zA-Z0-9][a-zA-Z0-9_-]{0,63})", ErrBadName, name)
	}
	return nil
}

// Spec is a collection's configuration, persisted as COLLECTION.json in
// the collection directory so a restart reopens the collection exactly
// as created. Zero fields inherit the engine's defaults.
type Spec struct {
	// Metric names the distance metric: euclidean | angular | hamming |
	// jaccard. Empty inherits the engine default.
	Metric string `json:"metric,omitempty"`
	// M is the hash-string length (0 = default).
	M int `json:"m,omitempty"`
	// Probes is the multi-probe count (0/1 = single-probe).
	Probes int `json:"probes,omitempty"`
	// Budget is the default per-query candidate budget λ.
	Budget int `json:"budget,omitempty"`
	// Seed fixes the hash functions.
	Seed uint64 `json:"seed,omitempty"`
	// BucketWidth is the Euclidean family's w (0 = derive from data).
	BucketWidth float64 `json:"bucket_width,omitempty"`
	// Quantize optionally compresses the scan store ("sq8").
	Quantize string `json:"quantize,omitempty"`
	// Rerank is the quantized-scan re-rank depth.
	Rerank int `json:"rerank,omitempty"`
	// RebuildAt is the dynamic delta threshold triggering a background
	// shard build.
	RebuildAt int `json:"rebuild_at,omitempty"`
	// Sync is the WAL sync policy of a rooted collection: always |
	// interval | none. Empty inherits the engine default.
	Sync string `json:"sync,omitempty"`
	// SyncIntervalMS is the fsync period for Sync "interval".
	SyncIntervalMS int `json:"sync_interval_ms,omitempty"`
	// SegmentBytes rotates WAL segments at this size.
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
}

// merged returns s with zero fields filled from def.
func (s Spec) merged(def Spec) Spec {
	if s.Metric == "" {
		s.Metric = def.Metric
	}
	if s.M == 0 {
		s.M = def.M
	}
	if s.Probes == 0 {
		s.Probes = def.Probes
	}
	if s.Budget == 0 {
		s.Budget = def.Budget
	}
	if s.Seed == 0 {
		s.Seed = def.Seed
	}
	if s.BucketWidth == 0 {
		s.BucketWidth = def.BucketWidth
	}
	if s.Quantize == "" {
		s.Quantize = def.Quantize
	}
	if s.Rerank == 0 {
		s.Rerank = def.Rerank
	}
	if s.RebuildAt == 0 {
		s.RebuildAt = def.RebuildAt
	}
	if s.Sync == "" {
		s.Sync = def.Sync
	}
	if s.SyncIntervalMS == 0 {
		s.SyncIntervalMS = def.SyncIntervalMS
	}
	if s.SegmentBytes == 0 {
		s.SegmentBytes = def.SegmentBytes
	}
	return s
}

// config translates the spec into the library's index configuration.
func (s Spec) config() (lccs.Config, error) {
	metric := s.Metric
	if metric == "" {
		metric = "euclidean"
	}
	kind, err := lccs.ParseMetric(metric)
	if err != nil {
		return lccs.Config{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return lccs.Config{
		Metric:      kind,
		M:           s.M,
		Probes:      s.Probes,
		Budget:      s.Budget,
		Seed:        s.Seed,
		BucketWidth: s.BucketWidth,
		Quantize:    s.Quantize,
		Rerank:      s.Rerank,
	}, nil
}

// durableConfig translates the spec into a durable-mode configuration.
func (s Spec) durableConfig(logger *slog.Logger) (lccs.DurableConfig, error) {
	cfg, err := s.config()
	if err != nil {
		return lccs.DurableConfig{}, err
	}
	policy := s.Sync
	if policy == "" {
		policy = "always"
	}
	sp, err := lccs.ParseSyncPolicy(policy)
	if err != nil {
		return lccs.DurableConfig{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return lccs.DurableConfig{
		Config:       cfg,
		Sync:         sp,
		SyncInterval: time.Duration(s.SyncIntervalMS) * time.Millisecond,
		SegmentBytes: s.SegmentBytes,
		RebuildAt:    s.RebuildAt,
		Logger:       logger,
	}, nil
}

// Collection is one named index inside the registry: the backend that
// answers its queries plus the lifecycle handles the registry and the
// daemon need (checkpointing, closing).
type Collection struct {
	name    string
	spec    Spec
	backend lccs.Searcher
	dur     *lccs.DurableIndex // nil for memory-only and immutable collections
	dyn     *lccs.DynamicIndex // nil when the backend is immutable
	adopted bool
	dir     string // "" for adopted and memory-only collections
	// usage is the collection's cumulative resource accounting; the
	// serving layer records into it on every request.
	usage Usage
}

// Name returns the collection's registry name.
func (c *Collection) Name() string { return c.name }

// Spec returns the resolved configuration the collection was opened
// with.
func (c *Collection) Spec() Spec { return c.spec }

// Backend returns the Searcher answering this collection's queries.
func (c *Collection) Backend() lccs.Searcher { return c.backend }

// Durable returns the durable handle, or nil when the collection is
// memory-only or immutable.
func (c *Collection) Durable() *lccs.DurableIndex { return c.dur }

// Dynamic returns the writable handle, or nil when the backend is
// immutable. For durable collections it is the embedded DynamicIndex.
func (c *Collection) Dynamic() *lccs.DynamicIndex { return c.dyn }

// Adopted reports whether the collection wraps a pre-built backend the
// registry does not manage on disk.
func (c *Collection) Adopted() bool { return c.adopted }

// specFile is the on-disk spec name inside a collection directory.
const specFile = "COLLECTION.json"

// Engine is the collection registry. All methods are safe for
// concurrent use; per-collection work (opening, dropping) runs under a
// registry-wide lock — collection opens are rare (first use after a
// restart) and index opens of serving-size corpora are fast relative
// to request timeouts.
type Engine struct {
	root     string // "" = rootless (memory-only collections)
	defaults Spec
	logger   *slog.Logger

	mu     sync.RWMutex
	colls  map[string]*Collection
	closed bool
}

// New opens a registry. root "" builds a rootless engine whose created
// collections are memory-only; a directory root persists each
// collection under <root>/collections/<name>/. defaults fill zero
// fields of every Create spec. Existing on-disk collections are NOT
// opened eagerly — they appear in List and open lazily on first Get.
func New(root string, defaults Spec, logger *slog.Logger) (*Engine, error) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	e := &Engine{
		root:     root,
		defaults: defaults,
		logger:   logger,
		colls:    make(map[string]*Collection),
	}
	if root != "" {
		if err := os.MkdirAll(filepath.Join(root, "collections"), 0o755); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	return e, nil
}

// collDir returns the directory of a rooted collection.
func (e *Engine) collDir(name string) string {
	return filepath.Join(e.root, "collections", name)
}

// Adopt registers a pre-built backend under name. The registry does not
// manage its storage: it cannot be dropped, and Close leaves it alone
// (the daemon owns its lifecycle). The collection's Durable and Dynamic
// handles follow from the backend's concrete type, so an adopted
// DurableIndex keeps its batch writes and WAL stats and an adopted
// DynamicIndex stays writable.
func (e *Engine) Adopt(name string, backend lccs.Searcher) (*Collection, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, errors.New("engine: Adopt requires a backend")
	}
	c := &Collection{name: name, backend: backend, adopted: true}
	switch b := backend.(type) {
	case *lccs.DurableIndex:
		c.dur, c.dyn = b, b.DynamicIndex
	case *lccs.DynamicIndex:
		c.dyn = b
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if _, dup := e.colls[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	e.colls[name] = c
	return c, nil
}

// Create makes a new collection. On a rooted engine the collection
// directory and its COLLECTION.json spec are written first, so the
// collection survives restarts; rootless engines build a memory-only
// DynamicIndex.
func (e *Engine) Create(name string, spec Spec) (*Collection, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	spec = spec.merged(e.defaults)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if _, dup := e.colls[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if e.root == "" {
		cfg, err := spec.config()
		if err != nil {
			return nil, err
		}
		dyn, err := lccs.NewDynamicIndex(nil, cfg, spec.RebuildAt)
		if err != nil {
			return nil, fmt.Errorf("engine: create %q: %w", name, err)
		}
		c := &Collection{name: name, spec: spec, backend: dyn, dyn: dyn}
		e.colls[name] = c
		e.logger.Info("collection created", "collection", name, "mode", "memory")
		return c, nil
	}
	dir := e.collDir(name)
	if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
		return nil, fmt.Errorf("%w: %q (on disk)", ErrExists, name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: create %q: %w", name, err)
	}
	if err := writeSpec(dir, spec); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("engine: create %q: %w", name, err)
	}
	c, err := e.openLocked(name, spec)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.logger.Info("collection created", "collection", name, "dir", dir)
	return c, nil
}

// Get returns the named collection, lazily opening it from its on-disk
// spec when the registry holds state for it but has not loaded it yet.
func (e *Engine) Get(name string) (*Collection, error) {
	e.mu.RLock()
	c, ok := e.colls[name]
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return c, nil
	}
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if e.root == "" {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if c, ok := e.colls[name]; ok { // raced another opener
		return c, nil
	}
	spec, err := readSpec(e.collDir(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: open %q: %w", name, err)
	}
	c, err = e.openLocked(name, spec.merged(e.defaults))
	if err != nil {
		return nil, err
	}
	e.logger.Info("collection opened", "collection", name, "vectors", c.backend.Len())
	return c, nil
}

// openLocked opens a rooted collection's durable state and registers
// it. Caller holds e.mu.
func (e *Engine) openLocked(name string, spec Spec) (*Collection, error) {
	dcfg, err := spec.durableConfig(e.logger.With("collection", name))
	if err != nil {
		return nil, err
	}
	dir := e.collDir(name)
	dur, err := lccs.OpenDurable(dir, dcfg)
	if err != nil {
		return nil, fmt.Errorf("engine: open %q: %w", name, err)
	}
	c := &Collection{name: name, spec: spec, backend: dur, dur: dur,
		dyn: dur.DynamicIndex, dir: dir}
	e.colls[name] = c
	return c, nil
}

// Drop closes the named collection and deletes its storage. Adopted
// collections are refused — the registry does not own their state.
func (e *Engine) Drop(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	c, ok := e.colls[name]
	if !ok {
		// Never opened this process: it may still exist on disk.
		if e.root != "" {
			if _, err := os.Stat(filepath.Join(e.collDir(name), specFile)); err == nil {
				if err := os.RemoveAll(e.collDir(name)); err != nil {
					return fmt.Errorf("engine: drop %q: %w", name, err)
				}
				e.logger.Info("collection dropped", "collection", name)
				return nil
			}
		}
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if c.adopted {
		return fmt.Errorf("%w: cannot drop %q", ErrAdopted, name)
	}
	delete(e.colls, name)
	if c.dur != nil {
		c.dur.WaitRebuild()
		if err := c.dur.Close(); err != nil {
			e.logger.Warn("closing dropped collection", "collection", name, "err", err)
		}
	} else if c.dyn != nil {
		c.dyn.WaitRebuild()
	}
	if c.dir != "" {
		if err := os.RemoveAll(c.dir); err != nil {
			return fmt.Errorf("engine: drop %q: %w", name, err)
		}
	}
	e.logger.Info("collection dropped", "collection", name)
	return nil
}

// List returns every collection name — loaded ones and, on a rooted
// engine, on-disk collections not yet opened — sorted.
func (e *Engine) List() []string {
	e.mu.RLock()
	names := make(map[string]bool, len(e.colls))
	for name := range e.colls {
		names[name] = true
	}
	root := e.root
	e.mu.RUnlock()
	if root != "" {
		entries, err := os.ReadDir(filepath.Join(root, "collections"))
		if err == nil {
			for _, ent := range entries {
				if !ent.IsDir() || ValidateName(ent.Name()) != nil {
					continue
				}
				if _, err := os.Stat(filepath.Join(root, "collections", ent.Name(), specFile)); err == nil {
					names[ent.Name()] = true
				}
			}
		}
	}
	out := make([]string, 0, len(names))
	for name := range names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Loaded returns the currently open collections (no lazy opening),
// sorted by name — the set a metrics scrape or checkpoint sweep should
// touch without forcing cold collections into memory.
func (e *Engine) Loaded() []*Collection {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Collection, 0, len(e.colls))
	for _, c := range e.colls {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Close closes every managed collection (adopted backends are left to
// their owner) and refuses further registry operations.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	var firstErr error
	for name, c := range e.colls {
		if c.adopted || c.dur == nil {
			continue
		}
		c.dur.WaitRebuild()
		if err := c.dur.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: close %q: %w", name, err)
		}
	}
	return firstErr
}

// writeSpec persists the spec atomically (temp file + rename), so a
// crash mid-create never leaves a half-written COLLECTION.json that a
// restart would reject.
func writeSpec(dir string, spec Spec) error {
	buf, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, specFile+".tmp")
	if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, specFile))
}

// readSpec loads a collection's persisted spec.
func readSpec(dir string) (Spec, error) {
	buf, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return Spec{}, err
	}
	var spec Spec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return Spec{}, fmt.Errorf("%w: corrupt %s: %v", ErrInvalidSpec, specFile, err)
	}
	return spec, nil
}
