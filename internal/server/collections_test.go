package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lccs"
	"lccs/internal/engine"
)

// doJSON issues a request with method/path/body and decodes the
// response into out (skipped when nil), returning the status code.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// newCollServer stands up a server over a rootless engine with sensible
// index defaults, no adopted backend.
func newCollServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	eng, err := engine.New("", engine.Spec{Metric: "euclidean", M: 8, Seed: 7, BucketWidth: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	return newTestServer(t, cfg)
}

// TestCollectionsCRUD drives the registry endpoints end to end: create
// two collections with different metrics, write to both, drop one, and
// check the survivor is untouched.
func TestCollectionsCRUD(t *testing.T) {
	_, ts := newCollServer(t, Config{})

	var info collectionInfo
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "tenant-a"}, &info); code != http.StatusCreated {
		t.Fatalf("create tenant-a: HTTP %d", code)
	}
	if !info.Loaded || info.Name != "tenant-a" {
		t.Fatalf("create response: %+v", info)
	}
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "tenant-b", Spec: engine.Spec{Metric: "angular", M: 16}}, nil); code != http.StatusCreated {
		t.Fatalf("create tenant-b: HTTP %d", code)
	}
	// Duplicates conflict; bad names are rejected.
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "tenant-a"}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: HTTP %d", code)
	}
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "no/slashes"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad name create: HTTP %d", code)
	}

	for i := 0; i < 8; i++ {
		v := []float32{float32(i), 1, 0}
		if code := postJSON(t, ts, "/v1/collections/tenant-a/insert",
			insertRequest{Vectors: [][]float32{v}}, nil); code != http.StatusOK {
			t.Fatalf("insert a[%d]: HTTP %d", i, code)
		}
	}
	if code := postJSON(t, ts, "/v1/collections/tenant-b/insert",
		insertRequest{Vectors: [][]float32{{1, 0, 0}, {0, 1, 0}}}, nil); code != http.StatusOK {
		t.Fatalf("insert b: HTTP %d", code)
	}

	var list listCollectionsResponse
	if code := doJSON(t, ts, "GET", "/v1/collections", nil, &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(list.Collections) != 2 ||
		list.Collections[0].Name != "tenant-a" || list.Collections[0].Vectors != 8 ||
		list.Collections[1].Name != "tenant-b" || list.Collections[1].Vectors != 2 {
		t.Fatalf("list = %+v", list.Collections)
	}

	var cst CollectionStats
	if code := doJSON(t, ts, "GET", "/v1/collections/tenant-a/stats", nil, &cst); code != http.StatusOK {
		t.Fatalf("collection stats: HTTP %d", code)
	}
	if cst.Inserts != 8 || cst.Backend.Vectors != 8 || !cst.Backend.Writable {
		t.Fatalf("tenant-a stats = %+v", cst)
	}

	// Search routes per collection.
	var sr searchResponse
	if code := postJSON(t, ts, "/v1/collections/tenant-a/search",
		searchRequest{Query: []float32{3, 1, 0}, K: 1}, &sr); code != http.StatusOK {
		t.Fatalf("search a: HTTP %d", code)
	}
	if len(sr.Neighbors) != 1 || sr.Neighbors[0].ID != 3 {
		t.Fatalf("search a = %+v", sr.Neighbors)
	}

	// Drop tenant-a; it 404s afterwards and tenant-b is untouched.
	if code := doJSON(t, ts, "DELETE", "/v1/collections/tenant-a", nil, nil); code != http.StatusOK {
		t.Fatalf("drop: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/collections/tenant-a/search",
		searchRequest{Query: []float32{3, 1, 0}, K: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("search dropped: HTTP %d", code)
	}
	if code := doJSON(t, ts, "DELETE", "/v1/collections/tenant-a", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double drop: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/collections/tenant-b/search",
		searchRequest{Query: []float32{1, 0, 0}, K: 2}, &sr); code != http.StatusOK || len(sr.Neighbors) != 2 {
		t.Fatalf("survivor search: HTTP %d, %d neighbors", code, len(sr.Neighbors))
	}

	// /v1/stats aggregates and breaks out per collection.
	var st Stats
	if code := doJSON(t, ts, "GET", "/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if st.Inserts != 2 { // tenant-a's counters died with it
		t.Fatalf("aggregate inserts = %d, want 2", st.Inserts)
	}
	if _, ok := st.Collections["tenant-b"]; !ok {
		t.Fatalf("stats missing tenant-b breakout: %v", st.Collections)
	}
}

// seedAttrWorkload fills a collection with n vectors whose parity is
// recorded in attributes: even ids are "red" with rank=id, odd "blue".
func seedAttrWorkload(t *testing.T, ts *httptest.Server, coll string, n int) {
	t.Helper()
	vecs := make([][]float32, n)
	attrs := make([]map[string]any, n)
	for i := 0; i < n; i++ {
		vecs[i] = []float32{float32(i), float32(i % 3), 0}
		color := "blue"
		if i%2 == 0 {
			color = "red"
		}
		attrs[i] = map[string]any{"color": color, "rank": i}
	}
	var ir insertResponse
	if code := postJSON(t, ts, "/v1/collections/"+coll+"/insert",
		insertRequest{Vectors: vecs, Attrs: attrs}, &ir); code != http.StatusOK {
		t.Fatalf("seed insert: HTTP %d", code)
	}
	if len(ir.IDs) != n {
		t.Fatalf("seed ids = %d, want %d", len(ir.IDs), n)
	}
}

// TestFilteredSearchHTTP pushes filter predicates through the wire
// format and checks the results against a locally built identical
// index.
func TestFilteredSearchHTTP(t *testing.T) {
	const n = 60
	_, ts := newCollServer(t, Config{})
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "docs"}, nil); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	seedAttrWorkload(t, ts, "docs", n)

	// The same data in a local index with the identical spec gives the
	// ground-truth answers.
	local, err := lccs.NewDynamicIndex(nil, lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 7, BucketWidth: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		color := "blue"
		if i%2 == 0 {
			color = "red"
		}
		if _, err := local.AddWithAttrs([]float32{float32(i), float32(i % 3), 0},
			lccs.Attrs{"color": lccs.StrAttr(color), "rank": lccs.IntAttr(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}

	q := []float32{20.2, 1, 0}
	lo, hi := int64(10), int64(40)
	cases := []struct {
		name  string
		terms []filterTermJSON
		f     *lccs.Filter
	}{
		{"eq_str", []filterTermJSON{{Key: "color", Value: "red"}},
			&lccs.Filter{Terms: []lccs.FilterTerm{lccs.EqStr("color", "red")}}},
		{"eq_int", []filterTermJSON{{Key: "rank", Value: float64(21)}},
			&lccs.Filter{Terms: []lccs.FilterTerm{lccs.EqInt("rank", 21)}}},
		{"range", []filterTermJSON{{Key: "rank", Op: "range", Min: &lo, Max: &hi}},
			&lccs.Filter{Terms: []lccs.FilterTerm{lccs.Range("rank", &lo, &hi)}}},
		{"conjunction", []filterTermJSON{
			{Key: "color", Value: "blue"},
			{Key: "rank", Op: "range", Min: &lo, Max: &hi},
		}, &lccs.Filter{Terms: []lccs.FilterTerm{
			lccs.EqStr("color", "blue"), lccs.Range("rank", &lo, &hi)}}},
	}
	for _, tc := range cases {
		want, err := local.SearchCostInto(q, 5, 0, tc.f, nil, nil, nil)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		var sr searchResponse
		if code := postJSON(t, ts, "/v1/collections/docs/search",
			searchRequest{Query: q, K: 5, Filter: tc.terms}, &sr); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", tc.name, code)
		}
		if len(sr.Neighbors) != len(want) {
			t.Fatalf("%s: %d results, want %d", tc.name, len(sr.Neighbors), len(want))
		}
		for i := range want {
			if sr.Neighbors[i].ID != want[i].ID {
				t.Fatalf("%s[%d]: id %d, want %d", tc.name, i, sr.Neighbors[i].ID, want[i].ID)
			}
		}
	}

	// Wire-format validation errors are the client's fault.
	for name, terms := range map[string][]filterTermJSON{
		"float_value": {{Key: "rank", Value: 1.5}},
		"bool_value":  {{Key: "ok", Value: true}},
		"bad_op":      {{Key: "rank", Op: "lt", Value: float64(3)}},
		"empty_range": {{Key: "rank", Op: "range"}},
	} {
		if code := postJSON(t, ts, "/v1/collections/docs/search",
			searchRequest{Query: q, K: 5, Filter: terms}, nil); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}

}

// TestCursorDrainHTTP drains a paginated scan over the wire and checks
// it reproduces the one-shot ordering exactly, then invalidates the
// token with a write.
func TestCursorDrainHTTP(t *testing.T) {
	const n = 50
	_, ts := newCollServer(t, Config{CacheSize: 32})
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "scan"}, nil); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	seedAttrWorkload(t, ts, "scan", n)

	q := []float32{13.7, 1, 0}
	filter := []filterTermJSON{{Key: "color", Value: "red"}}
	var oneShot searchResponse
	if code := postJSON(t, ts, "/v1/collections/scan/search",
		searchRequest{Query: q, K: n, Filter: filter}, &oneShot); code != http.StatusOK {
		t.Fatalf("one-shot: HTTP %d", code)
	}
	if len(oneShot.Neighbors) != n/2 {
		t.Fatalf("one-shot returned %d, want %d", len(oneShot.Neighbors), n/2)
	}

	var drained []neighborJSON
	cursor := ""
	pages := 0
	for {
		var page searchResponse
		if code := postJSON(t, ts, "/v1/collections/scan/search",
			searchRequest{Query: q, Limit: 7, Filter: filter, Cursor: cursor}, &page); code != http.StatusOK {
			t.Fatalf("page %d: HTTP %d", pages, code)
		}
		drained = append(drained, page.Neighbors...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > n {
			t.Fatal("cursor never exhausted")
		}
	}
	if len(drained) != len(oneShot.Neighbors) {
		t.Fatalf("drained %d, one-shot %d", len(drained), len(oneShot.Neighbors))
	}
	for i := range drained {
		if drained[i] != oneShot.Neighbors[i] {
			t.Fatalf("position %d: drained %+v, one-shot %+v", i, drained[i], oneShot.Neighbors[i])
		}
	}
	if pages != (n/2+6)/7 {
		t.Fatalf("pages = %d", pages)
	}

	// Fetch a token, mutate the collection, and watch the token die.
	var first searchResponse
	if code := postJSON(t, ts, "/v1/collections/scan/search",
		searchRequest{Query: q, Limit: 5}, &first); code != http.StatusOK || first.NextCursor == "" {
		t.Fatalf("page for invalidation: HTTP %d, cursor %q", code, first.NextCursor)
	}
	if code := postJSON(t, ts, "/v1/collections/scan/insert",
		insertRequest{Vectors: [][]float32{{99, 0, 0}}}, nil); code != http.StatusOK {
		t.Fatalf("invalidating insert: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/collections/scan/search",
		searchRequest{Query: q, Limit: 5, Cursor: first.NextCursor}, nil); code != http.StatusGone {
		t.Fatalf("stale cursor: HTTP %d, want 410", code)
	}
	// A syntactically invalid token is a plain 400.
	if code := postJSON(t, ts, "/v1/collections/scan/search",
		searchRequest{Query: q, Limit: 5, Cursor: "not-a-token"}, nil); code != http.StatusBadRequest {
		t.Fatalf("garbage cursor: HTTP %d, want 400", code)
	}
}

// TestCrossTenantCacheIsolation is the regression test for the cache
// key: two collections receiving the byte-identical query must never
// see each other's cached results, and filtered/paginated variants of
// one query must not alias its unfiltered entry.
func TestCrossTenantCacheIsolation(t *testing.T) {
	srv, ts := newCollServer(t, Config{CacheSize: 64})
	for name, v := range map[string][]float32{"a": {0, 0, 0}, "b": {5, 5, 5}} {
		if code := doJSON(t, ts, "POST", "/v1/collections",
			createCollectionRequest{Name: name}, nil); code != http.StatusCreated {
			t.Fatalf("create %s: HTTP %d", name, code)
		}
		if code := postJSON(t, ts, "/v1/collections/"+name+"/insert",
			insertRequest{Vectors: [][]float32{v},
				Attrs: []map[string]any{{"tenant": name}}}, nil); code != http.StatusOK {
			t.Fatalf("insert %s: HTTP %d", name, code)
		}
	}

	q := searchRequest{Query: []float32{0, 0, 0}, K: 1}
	var ra, rb searchResponse
	// Prime the cache through collection a, then repeat to confirm the
	// entry is actually served from cache.
	if code := postJSON(t, ts, "/v1/collections/a/search", q, &ra); code != http.StatusOK {
		t.Fatalf("search a: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/collections/a/search", q, &ra); code != http.StatusOK || !ra.Cached {
		t.Fatalf("repeat search a: HTTP %d cached=%v", code, ra.Cached)
	}
	// The identical query against b must reflect b's data, not a's
	// cached answer.
	if code := postJSON(t, ts, "/v1/collections/b/search", q, &rb); code != http.StatusOK {
		t.Fatalf("search b: HTTP %d", code)
	}
	if rb.Cached {
		t.Fatal("b's first search claims a cache hit: keys alias across tenants")
	}
	if rb.Neighbors[0].Dist == ra.Neighbors[0].Dist {
		t.Fatalf("b returned a's cached distance %v", rb.Neighbors[0].Dist)
	}

	// A filtered variant of the cached query must miss too.
	var rf searchResponse
	if code := postJSON(t, ts, "/v1/collections/a/search",
		searchRequest{Query: q.Query, K: 1,
			Filter: []filterTermJSON{{Key: "tenant", Value: "nobody"}}}, &rf); code != http.StatusOK {
		t.Fatalf("filtered search: HTTP %d", code)
	}
	if rf.Cached || len(rf.Neighbors) != 0 {
		t.Fatalf("filtered variant aliased the unfiltered entry: %+v", rf)
	}

	// Successive cursor pages key separately: page two is not page one.
	var p1, p2 searchResponse
	if code := postJSON(t, ts, "/v1/collections/a/search",
		searchRequest{Query: q.Query, Limit: 1}, &p1); code != http.StatusOK {
		t.Fatalf("page 1: HTTP %d", code)
	}
	if p1.NextCursor != "" {
		if code := postJSON(t, ts, "/v1/collections/a/search",
			searchRequest{Query: q.Query, Limit: 1, Cursor: p1.NextCursor}, &p2); code != http.StatusOK {
			t.Fatalf("page 2: HTTP %d", code)
		}
		if p2.Cached {
			t.Fatal("page 2 served page 1's cache entry")
		}
	}

	// Dropping a collection flushes the cache: a successor of the same
	// name starts at generation zero and must not inherit entries.
	if code := doJSON(t, ts, "DELETE", "/v1/collections/a", nil, nil); code != http.StatusOK {
		t.Fatalf("drop a: HTTP %d", code)
	}
	if got := srv.cache.len(); got != 0 {
		t.Fatalf("cache holds %d entries after drop, want 0", got)
	}
}

// TestCollectionQuota checks the per-collection concurrency share: a
// hot collection is shed with 503 while the global controller still has
// room.
func TestCollectionQuota(t *testing.T) {
	backend := &blockingBackend{started: make(chan struct{}, 8), gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{
		Backend:               backend,
		MaxInFlight:           4,
		MaxQueue:              4,
		CollectionMaxInFlight: 1,
		Timeout:               10 * time.Second,
	})

	req := searchRequest{Query: []float32{1}, K: 1}
	done := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		done <- postJSON(t, ts, "/v1/search", req, nil)
	}()
	<-backend.started // the first request now occupies the share

	raw, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-share request: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota 503 without Retry-After")
	}

	close(backend.gate)
	wg.Wait()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("admitted request: HTTP %d", code)
	}
	st := srv.StatsSnapshot()
	cst, ok := st.Collections[DefaultCollection]
	if !ok || cst.QuotaRejected != 1 {
		t.Fatalf("quota stats = %+v (ok=%v)", cst, ok)
	}
	if cst.InFlight != 0 {
		t.Fatalf("occupancy leaked: %d", cst.InFlight)
	}
	// The global controller never rejected anything.
	if st.Rejected != 0 {
		t.Fatalf("global rejected = %d, want 0", st.Rejected)
	}
}

// TestInsertAttrsValidation covers the attribute wire format's error
// paths.
func TestInsertAttrsValidation(t *testing.T) {
	_, ts := newCollServer(t, Config{})
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "v"}, nil); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	vec := [][]float32{{1, 2, 3}}
	for name, req := range map[string]insertRequest{
		"misaligned": {Vectors: [][]float32{{1, 2, 3}, {4, 5, 6}}, Attrs: []map[string]any{{"a": "b"}}},
		"float_attr": {Vectors: vec, Attrs: []map[string]any{{"score": 1.5}}},
		"bool_attr":  {Vectors: vec, Attrs: []map[string]any{{"ok": true}}},
	} {
		if code := postJSON(t, ts, "/v1/collections/v/insert", req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
	// A null attrs row is a vector without metadata, not an error.
	var ir insertResponse
	if code := postJSON(t, ts, "/v1/collections/v/insert",
		insertRequest{Vectors: [][]float32{{1, 2, 3}, {4, 5, 6}},
			Attrs: []map[string]any{nil, {"color": "red"}}}, &ir); code != http.StatusOK {
		t.Fatalf("null attrs row: HTTP %d", code)
	}
	if len(ir.IDs) != 2 {
		t.Fatalf("ids = %v", ir.IDs)
	}
	// And the metadata is actually queryable.
	var sr searchResponse
	if code := postJSON(t, ts, "/v1/collections/v/search",
		searchRequest{Query: []float32{4, 5, 6}, K: 2,
			Filter: []filterTermJSON{{Key: "color", Value: "red"}}}, &sr); code != http.StatusOK {
		t.Fatalf("filtered search: HTTP %d", code)
	}
	if len(sr.Neighbors) != 1 || sr.Neighbors[0].ID != ir.IDs[1] {
		t.Fatalf("filtered results = %+v", sr.Neighbors)
	}
}
