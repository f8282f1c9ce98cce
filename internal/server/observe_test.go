package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"lccs"
)

// TestUsageEndpoints drives metered traffic over a durable backend and
// checks both usage views: the per-collection cumulative counters (with
// WAL bytes) and the engine-wide aggregate.
func TestUsageEndpoints(t *testing.T) {
	dir := t.TempDir()
	data, queries := testWorkload(21, 200, 8)
	di := openDurableBackend(t, dir)
	_, ts := newTestServer(t, Config{Backend: di, CacheSize: 16})

	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data}, nil); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/delete", map[string]any{"ids": []int{3}}, nil); code != http.StatusOK {
		t.Fatalf("delete: HTTP %d", code)
	}
	for i := 0; i < 5; i++ {
		if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[i], K: 3}, nil); code != http.StatusOK {
			t.Fatalf("search %d: HTTP %d", i, code)
		}
	}
	// Repeat the first query: a cache hit still counts as a search.
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: 3}, nil); code != http.StatusOK {
		t.Fatal("repeat search failed")
	}

	var ur usageResponse
	if code := doJSON(t, ts, "GET", "/v1/collections/default/usage", nil, &ur); code != http.StatusOK {
		t.Fatalf("collection usage: HTTP %d", code)
	}
	cu := ur.Cumulative
	if ur.Collection != "default" {
		t.Fatalf("collection = %q", ur.Collection)
	}
	if cu.Searches != 6 {
		t.Fatalf("searches = %d, want 6", cu.Searches)
	}
	if cu.Inserts != int64(len(data)) || cu.Deletes != 1 {
		t.Fatalf("inserts/deletes = %d/%d, want %d/1", cu.Inserts, cu.Deletes, len(data))
	}
	if cu.Comparisons <= 0 || cu.Candidates <= 0 || cu.BytesScanned <= 0 {
		t.Fatalf("cost counters empty: %+v", cu)
	}
	if cu.CostUnits != cu.Comparisons+cu.BytesScanned/4 {
		t.Fatalf("cost units %d, want %d", cu.CostUnits, cu.Comparisons+cu.BytesScanned/4)
	}
	if cu.CacheHits != 1 || cu.CacheMisses != 5 {
		t.Fatalf("cache = %d hits / %d misses, want 1/5", cu.CacheHits, cu.CacheMisses)
	}
	if cu.WALBytes <= 0 {
		t.Fatalf("wal bytes = %d, want > 0", cu.WALBytes)
	}
	if ur.WAL == nil || ur.WAL.AppendedBytes < cu.WALBytes {
		t.Fatalf("wal stats missing or inconsistent: %+v vs usage %d", ur.WAL, cu.WALBytes)
	}
	// Windowed rates at both resolutions; the traffic just ran, so the
	// short window must see it.
	if len(ur.Windows) != 2 || ur.Windows[0].Resolution != "1s" || ur.Windows[1].Resolution != "1m" {
		t.Fatalf("windows = %+v, want [1s, 1m] resolutions", ur.Windows)
	}
	if ur.Windows[0].Requests == 0 || ur.Windows[0].BytesScanned <= 0 {
		t.Fatalf("short window empty: %+v", ur.Windows[0])
	}

	// The aggregate view sums to the same figures for a single tenant.
	var ar aggregateUsageResponse
	if code := doJSON(t, ts, "GET", "/v1/usage", nil, &ar); code != http.StatusOK {
		t.Fatalf("aggregate usage: HTTP %d", code)
	}
	if ar.Total != ar.Collections["default"] {
		t.Fatalf("aggregate total %+v != default %+v", ar.Total, ar.Collections["default"])
	}
	if ar.Total.Searches != cu.Searches || ar.Total.BytesScanned < cu.BytesScanned {
		t.Fatalf("aggregate drifted from collection: %+v vs %+v", ar.Total, cu)
	}

	// The same counters surface as per-collection Prometheus families.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := map[string]bool{
		"lccs_collection_searches_total":           false,
		"lccs_collection_scan_bytes_total":         false,
		"lccs_collection_cost_units_total":         false,
		"lccs_collection_wal_appended_bytes_total": false,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for fam := range want {
			if strings.HasPrefix(line, fam+`{collection="default"}`) && !strings.HasSuffix(line, " 0") {
				want[fam] = true
			}
		}
	}
	for fam, ok := range want {
		if !ok {
			t.Errorf("metrics missing non-zero %s{collection=\"default\"}", fam)
		}
	}
}

// TestDebugHealthEndpoint exercises the windowed health report: RED and
// usage figures at two resolutions, the SLO burn indicator, admission
// state, per-collection windows, and WAL lag.
func TestDebugHealthEndpoint(t *testing.T) {
	dir := t.TempDir()
	data, queries := testWorkload(22, 200, 8)
	di := openDurableBackend(t, dir)
	_, ts := newTestServer(t, Config{Backend: di})

	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data}, nil); code != http.StatusOK {
		t.Fatal("insert failed")
	}
	for i := 0; i < 8; i++ {
		if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[i], K: 3}, nil); code != http.StatusOK {
			t.Fatalf("search %d: HTTP %d", i, code)
		}
	}
	// One failing request: counted as an error, without a latency sample.
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: -1}, nil); code != http.StatusBadRequest {
		t.Fatal("bad search did not 400")
	}

	var hr healthResponse
	if code := doJSON(t, ts, "GET", "/v1/debug/health", nil, &hr); code != http.StatusOK {
		t.Fatalf("debug health: HTTP %d", code)
	}
	if hr.Status != "ok" || hr.UptimeSeconds < 0 {
		t.Fatalf("status/uptime: %+v", hr)
	}
	if len(hr.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(hr.Windows))
	}
	short, long := hr.Windows[0], hr.Windows[1]
	if short.Resolution != "1s" || long.Resolution != "1m" {
		t.Fatalf("resolutions = %q/%q, want 1s/1m", short.Resolution, long.Resolution)
	}
	// Both resolutions see the traffic that just ran: requests, errors,
	// latency, and usage are all non-zero.
	if short.Requests == 0 || long.Requests == 0 {
		t.Fatalf("windows empty: short %d, long %d requests", short.Requests, long.Requests)
	}
	if short.Errors == 0 || long.Errors == 0 {
		t.Fatalf("error not visible: short %d, long %d", short.Errors, long.Errors)
	}
	if short.P50Ms <= 0 || short.MeanMs <= 0 {
		t.Fatalf("latency empty: %+v", short)
	}
	if short.Comparisons <= 0 || short.BytesScanned <= 0 || short.WALBytes <= 0 {
		t.Fatalf("usage empty in window: %+v", short)
	}
	if short.ErrorRate <= 0 || short.RPS <= 0 {
		t.Fatalf("rates empty: %+v", short)
	}
	// The SLO indicator reflects the induced error rate (1/10 >> 0.1%
	// budget in both windows → burning).
	if hr.SLO.Target != 0.999 {
		t.Fatalf("slo target = %g", hr.SLO.Target)
	}
	if hr.SLO.BurnRate1m <= 1 || hr.SLO.State != "burning" {
		t.Fatalf("slo = %+v, want burning with rate > 1", hr.SLO)
	}
	// Per-collection breakdown and WAL lag.
	cw, ok := hr.Collections["default"]
	if !ok || cw.Requests == 0 {
		t.Fatalf("collection window missing/empty: %+v", hr.Collections)
	}
	if len(hr.WAL) != 1 || hr.WAL[0].Collection != "default" || hr.WAL[0].AppendedBytes <= 0 {
		t.Fatalf("wal health = %+v", hr.WAL)
	}
}

// TestExplainSearch checks the resolved query plan over a sharded
// backend: every shard enumerated with its own comparisons, candidates,
// and bytes, the whole-query cost record, and the cache outcome across
// a miss/hit pair.
func TestExplainSearch(t *testing.T) {
	data, queries := testWorkload(23, 400, 8)
	sx, err := lccs.NewShardedIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx, CacheSize: 16})

	var got searchResponse
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: 5, Explain: true}, &got); code != http.StatusOK {
		t.Fatalf("explain search: HTTP %d", code)
	}
	e := got.Explain
	if e == nil {
		t.Fatal("response missing explain")
	}
	if got.RequestID == 0 {
		t.Fatal("explain response missing request_id")
	}
	// Explain implies an internal trace but must not leak the span tree.
	if len(got.Trace) != 0 {
		t.Fatal("explain leaked the span tree without trace:true")
	}
	if e.Collection != "default" || e.Backend != "sharded" || e.K != 5 {
		t.Fatalf("plan header: %+v", e)
	}
	if e.Filtered || e.FilterSelectivity != nil {
		t.Fatalf("unfiltered plan claims a filter: %+v", e)
	}
	if e.Cache != "miss" {
		t.Fatalf("cache outcome = %q, want miss", e.Cache)
	}
	if e.Cost == nil || e.Cost.Comparisons <= 0 || e.Cost.Candidates <= 0 || e.Cost.BytesScanned <= 0 {
		t.Fatalf("cost record empty: %+v", e.Cost)
	}
	// Every shard appears, each with its own non-zero counters, and the
	// per-shard figures sum to the query totals.
	if len(e.Shards) != sx.Shards() {
		t.Fatalf("plan covers %d shards, want %d", len(e.Shards), sx.Shards())
	}
	seen := map[int]bool{}
	var sumComp, sumCand, sumBytes int64
	for _, sh := range e.Shards {
		if sh.Shard < 0 || seen[sh.Shard] {
			t.Fatalf("bad/duplicate shard ordinal: %+v", e.Shards)
		}
		seen[sh.Shard] = true
		if sh.Comparisons <= 0 || sh.Candidates <= 0 || sh.Bytes <= 0 {
			t.Fatalf("shard %d counters empty: %+v", sh.Shard, sh)
		}
		if sh.Plan != "csa" || sh.PostingLen != nil {
			t.Fatalf("unfiltered shard %d plan = %q (posting %v), want csa", sh.Shard, sh.Plan, sh.PostingLen)
		}
		sumComp += sh.Comparisons
		sumCand += sh.Candidates
		sumBytes += sh.Bytes
	}
	if sumComp != e.Cost.Comparisons || sumCand != e.Cost.Candidates || sumBytes != e.Cost.BytesScanned {
		t.Fatalf("per-shard sums %d/%d/%d != cost %d/%d/%d",
			sumComp, sumCand, sumBytes, e.Cost.Comparisons, e.Cost.Candidates, e.Cost.BytesScanned)
	}

	// The identical query again: a cache hit, explained as such, with no
	// backend work to report.
	var hit searchResponse
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: 5, Explain: true}, &hit); code != http.StatusOK {
		t.Fatal("cached explain failed")
	}
	if !hit.Cached || hit.Explain == nil {
		t.Fatalf("second query not a cache hit: %+v", hit)
	}
	if hit.Explain.Cache != "hit" || hit.Explain.Cost != nil || len(hit.Explain.Shards) != 0 {
		t.Fatalf("cache-hit plan should carry no backend work: %+v", hit.Explain)
	}
}

// TestExplainFilteredBuffer checks the plan of a filtered query against
// a dynamic collection whose rows still sit in the delta buffer: the
// buffer scan is reported, and the observed filter selectivity is
// present and sane.
func TestExplainFilteredBuffer(t *testing.T) {
	_, ts := newCollServer(t, Config{})
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "tenant-a"}, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	data, queries := testWorkload(24, 60, 8)
	attrs := make([]map[string]any, len(data))
	for i := range attrs {
		color := "red"
		if i%2 == 1 {
			color = "blue"
		}
		attrs[i] = map[string]any{"color": color}
	}
	if code := postJSON(t, ts, "/v1/collections/tenant-a/insert",
		insertRequest{Vectors: data, Attrs: attrs}, nil); code != http.StatusOK {
		t.Fatal("insert failed")
	}

	var got searchResponse
	req := searchRequest{
		Query:   queries[0],
		K:       3,
		Filter:  []filterTermJSON{{Key: "color", Value: "red"}},
		Explain: true,
	}
	if code := postJSON(t, ts, "/v1/collections/tenant-a/search", req, &got); code != http.StatusOK {
		t.Fatalf("filtered explain: HTTP %d", code)
	}
	e := got.Explain
	if e == nil {
		t.Fatal("response missing explain")
	}
	if e.Backend != "dynamic" || !e.Filtered {
		t.Fatalf("plan header: %+v", e)
	}
	if e.Cache != "off" {
		t.Fatalf("cache outcome = %q, want off (no cache configured)", e.Cache)
	}
	// All rows are unindexed, so the work happened in the buffer scan.
	if e.Buffer == nil || e.Buffer.Comparisons != int64(len(data)) {
		t.Fatalf("buffer scan = %+v, want %d comparisons", e.Buffer, len(data))
	}
	if len(e.Shards) != 0 {
		t.Fatalf("no shards exist yet, plan lists %d", len(e.Shards))
	}
	if e.FilterSelectivity == nil {
		t.Fatal("filtered plan missing selectivity")
	}
	if sel := *e.FilterSelectivity; sel != 0.5 {
		t.Fatalf("selectivity = %g, want 0.5 (half the rows are red)", sel)
	}
	if e.Cost == nil || e.Cost.FilterRejected != int64(len(data)/2) {
		t.Fatalf("cost = %+v, want %d filter-rejected", e.Cost, len(data)/2)
	}
}

// filterStageCount reads the lccs_stage_seconds sample count of the
// filter stage from /metrics.
func filterStageCount(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), `lccs_stage_seconds_count{stage="filter"} `); ok {
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

// TestExplainFilterPlans checks that EXPLAIN reports the filter
// planner's per-shard choice: a 1% tenant filter is answered from the
// postings on every shard (no CSA comparisons, timed under the filter
// stage), a 50% filter at a tiny budget and a range-only filter drain
// the CSA, and the posting length appears exactly when an equality
// posting list was consulted.
func TestExplainFilterPlans(t *testing.T) {
	data, queries := testWorkload(25, 400, 8)
	attrs := make([]lccs.Attrs, len(data))
	for i := range attrs {
		attrs[i] = lccs.Attrs{"tenant": lccs.IntAttr(int64(i % 100)), "half": lccs.IntAttr(int64(i % 2)), "pos": lccs.IntAttr(int64(i))}
	}
	sx, err := lccs.NewShardedIndexWithAttrs(data, attrs, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx})
	explain := func(budget int, terms ...filterTermJSON) *explainJSON {
		t.Helper()
		var got searchResponse
		req := searchRequest{Query: queries[1], K: 5, Budget: budget, Filter: terms, Explain: true}
		if code := postJSON(t, ts, "/v1/search", req, &got); code != http.StatusOK || got.Explain == nil {
			t.Fatalf("explain %+v: HTTP %d", terms, code)
		}
		if len(got.Explain.Shards) != sx.Shards() {
			t.Fatalf("plan covers %d shards, want %d", len(got.Explain.Shards), sx.Shards())
		}
		return got.Explain
	}

	before := filterStageCount(t, ts.URL)
	e := explain(2, filterTermJSON{Key: "tenant", Value: float64(3)})
	for _, sh := range e.Shards {
		if sh.Plan != "postings" || sh.PostingLen == nil || *sh.PostingLen != 2 || sh.Comparisons != 0 || sh.Candidates != 2 {
			t.Fatalf("1%% filter, shard %+v: want the postings plan over its 2 tenant rows", sh)
		}
	}
	if e.Cost == nil || e.Cost.Comparisons != 0 || e.Cost.Candidates != 4 || e.Cost.FilterRejected != 0 {
		t.Fatalf("postings cost = %+v", e.Cost)
	}
	if after := filterStageCount(t, ts.URL); after < before+int64(sx.Shards()) {
		t.Fatalf("filter stage count %d → %d: the postings scans were not timed", before, after)
	}

	// 100 matching rows per 200-row shard: p² = 10⁴ > (λ+k−1)·n = 5·200.
	e = explain(2, filterTermJSON{Key: "half", Value: float64(0)})
	for _, sh := range e.Shards {
		if sh.Plan != "csa" || sh.PostingLen == nil || *sh.PostingLen != 100 || sh.Comparisons <= 0 {
			t.Fatalf("50%% filter at λ=2, shard %+v: want the CSA plan with posting length 100", sh)
		}
	}

	lo, hi := int64(10), int64(300)
	e = explain(0, filterTermJSON{Key: "pos", Op: "range", Min: &lo, Max: &hi})
	for _, sh := range e.Shards {
		if sh.Plan != "csa" || sh.PostingLen != nil {
			t.Fatalf("range-only filter, shard %+v: want the CSA plan and no posting length", sh)
		}
	}
}

// TestWriteRequestIDs checks that the write and registry endpoints
// carry a request id in both the JSON body and the X-Request-Id header.
func TestWriteRequestIDs(t *testing.T) {
	srv, ts := newCollServer(t, Config{})
	_ = srv
	raw, _ := json.Marshal(createCollectionRequest{Name: "tenant-a"})
	resp, err := http.Post(ts.URL+"/v1/collections", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var cr createCollectionResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.RequestID == 0 || resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("create: request id missing (body %d, header %q)", cr.RequestID, resp.Header.Get("X-Request-Id"))
	}

	data, _ := testWorkload(25, 10, 8)
	raw, _ = json.Marshal(insertRequest{Vectors: data})
	resp, err = http.Post(ts.URL+"/v1/collections/tenant-a/insert", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var ins insertResponse
	if err := json.NewDecoder(resp.Body).Decode(&ins); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ins.RequestID == 0 || resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("insert: request id missing: %+v", ins)
	}

	raw, _ = json.Marshal(deleteRequest{IDs: []int{0}})
	resp, err = http.Post(ts.URL+"/v1/collections/tenant-a/delete", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var del deleteResponse
	if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if del.RequestID == 0 || resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("delete: request id missing: %+v", del)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/collections/tenant-a", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dr dropCollectionResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.RequestID == 0 || dr.Dropped != "tenant-a" || resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("drop: request id missing: %+v", dr)
	}
}

// TestPromLabelEscaping renders series whose collection names carry
// every character the exposition format must escape — quotes,
// backslashes, newlines — and checks each sample stays a single,
// well-formed line. The HTTP API's name validation keeps such names
// out in practice; the formatter must still never emit a broken scrape.
func TestPromLabelEscaping(t *testing.T) {
	hostile := []string{
		`quote"inside`,
		`back\slash`,
		"new\nline",
		"tab\tand\"both\\of\nthem",
	}
	m := newMetrics()
	var counters []gauge
	for _, name := range hostile {
		counters = append(counters, gauge{
			name:   "lccs_collection_scan_bytes_total",
			help:   "test family",
			value:  1,
			labels: collLabel(name),
		})
	}
	var buf bytes.Buffer
	m.writeProm(&buf, counters, nil)

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	samples := 0
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !strings.HasPrefix(line, "lccs_") {
			// A raw newline inside a label value would start a line that
			// is neither a comment nor a sample.
			t.Fatalf("stray continuation line %q: label value leaked a newline", line)
		}
		if _, _, _, err := parseSample(line); err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		if strings.HasPrefix(line, "lccs_collection_scan_bytes_total") {
			samples++
		}
	}
	if samples != len(hostile) {
		t.Fatalf("rendered %d hostile-name samples, want %d", samples, len(hostile))
	}
	// The escapes themselves: %q turns ", \, and newline into \", \\, \n.
	out := buf.String()
	for _, esc := range []string{`quote\"inside`, `back\\slash`, `new\nline`} {
		if !strings.Contains(out, esc) {
			t.Errorf("output missing escaped form %s", esc)
		}
	}
}
