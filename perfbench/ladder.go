package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lccs"
	"lccs/internal/core"
	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
	"lccs/internal/server"
	"lccs/internal/vec"
)

// The traced run sends one query stream up a ladder of the stack's
// layers, calling each layer's public functions in-process:
//
//	lshfamily.hash  HashString of the query (shard 0's functions)
//	csa.drain       Begin + Next until λ_shard+k−1 rows pass the filter
//	vec.gather      GatherDistancesInto over the accepted rows
//	core.search     each shard's internal/core search
//	shard.search    ShardedIndex.SearchCostInto
//	dynamic.search  DurableIndex.SearchCostInto (shards, buffer, tombstones)
//	vec.buffer_scan DistancesInto over a store shaped like the buffer
//	server.handle   Handler().ServeHTTP in memory
//	http.request    the same request over loopback HTTP
//
// then times single durable writes, a checkpoint and the recovery that
// opened the durable rung. Every call is a span; the per-layer metrics
// are medians over queries of span durations and of differences between
// rungs (a layer's self time). The tracing overhead is the query span's
// own self time, the part of each query no layer call covers; every
// other query also runs untraced, and the two medians go to stderr.

// layerMetrics lists the per-layer metrics the traced run reports, in
// order, with their units.
var layerMetrics = []struct{ name, unit string }{
	{"lshfamily.hash_us", "us"},
	{"csa.drain_us", "us"},
	{"csa.ns_per_candidate", "ns"},
	{"csa.comparisons_per_query", "count"},
	{"core.search_us", "us"},
	{"core.self_us", "us"},
	{"core.candidates_per_query", "count"},
	{"core.filter_rejected_per_query", "count"},
	{"core.accept_ratio", "ratio"},
	{"core.lambda_r90", "count"},
	{"core.lambda_r95", "count"},
	{"vec.gather_ns_per_row", "ns"},
	{"vec.scan_bytes_per_query", "bytes"},
	{"vec.buffer_scan_us", "us"},
	{"shard.search_us", "us"},
	{"shard.fanout_overhead_us", "us"},
	{"dynamic.search_us", "us"},
	{"dynamic.buffered_rows", "count"},
	{"dynamic.tombstones", "count"},
	{"dynamic.shards", "count"},
	{"dynamic.live_ratio", "ratio"},
	{"durable.add_us", "us"},
	{"durable.delete_us", "us"},
	{"wal.writes_per_fsync", "ratio"},
	{"wal.bytes_per_write", "bytes"},
	{"durable.checkpoint_s", "s"},
	{"durable.recovery_s", "s"},
	{"durable.replayed_records", "count"},
	{"durable.disk_amp", "ratio"},
	{"server.overhead_us", "us"},
	{"server.allocs_per_req", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"http.transport_us", "us"},
	{"trace.overhead_us", "us"},
}

// span is one timed ladder call. Spans of one query share Req.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // index of the parent span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N counts the items the call processed, where that is the
	// per-layer unit of work (rows drained, rows gathered).
	N int `json:"n,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
}

// begin opens a span and returns its index (-1 while tracing is off).
func (t *tracer) begin(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.endN(i, 0) }

// endN closes a span that processed n items.
func (t *tracer) endN(i, n int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
		t.spans[i].N = n
	}
}

// memWriter is a reusable in-memory http.ResponseWriter.
type memWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(c int)   { w.code = c }
func (w *memWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *memWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

// replyIDs decodes a search reply into ids.
func replyIDs(body []byte) ([]int32, error) {
	var rep searchReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, err
	}
	ids := make([]int32, len(rep.Neighbors))
	for i, nb := range rep.Neighbors {
		ids[i] = nb.ID
	}
	return ids, nil
}

func sameIDs(a []int32, b []lccs.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if int(a[i]) != b[i].ID {
			return false
		}
	}
	return true
}

// runLadder is the traced run (--trace 1).
func runLadder(in *inputs, work string, d time.Duration) (*result, error) {
	m := vec.MetricByName(string(in.metric))
	var tl tally
	out := map[string]float64{}

	// The durable rung: a prepared directory (snapshot of the base rows
	// plus a WAL tail), recovered and timed. On write_mix it is also
	// the served backend.
	prepared := filepath.Join(work, "prepared")
	tailIDs, err := prepareDurable(prepared, in.metric, in.base, in.attrs(), in.tail)
	if err != nil {
		return nil, fmt.Errorf("prepare durable directory: %w", err)
	}
	t0 := time.Now()
	dur, err := lccs.OpenDurable(prepared, durableConfig(in.metric))
	if err != nil {
		return nil, err
	}
	out["durable.recovery_s"] = time.Since(t0).Seconds()
	out["durable.replayed_records"] = float64(dur.Recovery().Records)
	out["dynamic.buffered_rows"] = float64(dur.Buffered())
	out["dynamic.tombstones"] = float64(dur.Deleted())
	out["dynamic.shards"] = float64(dur.Shards())
	out["dynamic.live_ratio"] = float64(dur.Len()) / float64(dur.Len()+dur.Deleted())

	// The lower rungs: the base rows as a ShardedIndex — the served
	// backend on the read workloads, built beside the durable one on
	// write_mix.
	var sx *lccs.ShardedIndex
	var served interface {
		lccs.Searcher
		lccs.CostSearcher
	}
	var st *stack
	if in.name == writeMix {
		if sx, err = lccs.NewShardedIndex(in.base, indexConfig(in.metric), indexShards); err != nil {
			dur.Close()
			return nil, err
		}
		if st, err = serveDurable(dur, prepared, in.metric); err != nil {
			return nil, err
		}
		served = dur
	} else {
		if st, err = startStatic(in); err != nil {
			dur.Close()
			return nil, err
		}
		sx = st.backend.(*lccs.ShardedIndex)
		served = sx
	}
	defer func() {
		st.close()
		if in.name != writeMix {
			dur.Close()
		}
	}()
	// A second server over the same backend answers the loopback rung,
	// so neither server's result cache sees a query twice.
	memSrv, err := server.New(serverConfig(served, nil))
	if err != nil {
		return nil, err
	}

	// The model of the served rows, for the answer checks, and every
	// row of the durable rung in insert order.
	servedTail := tailIDs
	if in.name != writeMix {
		servedTail = nil
	}
	rows, deletedAt := rowModel(in, servedTail)
	inserted := append([][]float32(nil), in.base...)
	for _, op := range in.tail {
		if !op.del {
			inserted = append(inserted, op.vec)
		}
	}
	tenantOf := func(id int32) int64 { return in.tenants[id] }
	ck := &checker{metric: m, deletedAt: deletedAt, vector: func(id int32) []float32 { return rows[id] }}
	if in.tenants != nil {
		ck.tenant = tenantOf
	}

	// λ at recall 0.90 and 0.95 on the served backend.
	liveRows := make(map[int32][]float32, len(rows))
	for id, v := range rows {
		if _, dead := deletedAt[id]; !dead {
			liveRows[id] = v
		}
	}
	ls := newLiveSet(len(in.base[0]), liveRows)
	truth := ls.truth(in.calib, in.calibTenant, m, tenantOf)
	cal90, err := calibrate(served, len(ls.ids), in.calib, in.calibTenant, truth, recallTarget)
	if err != nil {
		return nil, err
	}
	cal95, err := calibrate(served, len(ls.ids), in.calib, in.calibTenant, truth, 0.95)
	if err != nil {
		return nil, err
	}
	out["core.lambda_r90"], out["core.lambda_r95"] = float64(cal90.lambda), float64(cal95.lambda)
	lambda := cal90.lambda

	offsets := []int{}
	for s := 0; s < sx.Shards(); s++ {
		_, off := sx.Shard(s)
		offsets = append(offsets, off)
	}
	rep, err := newReplica(in, append(offsets, len(in.base)))
	if err != nil {
		return nil, err
	}
	buffered := dur.Buffered()
	bufStore, err := vec.FromRows(inserted[len(inserted)-buffered:])
	if err != nil && buffered > 0 {
		return nil, err
	}
	logf("%s seed %d: λ(r≥0.90)=%d λ(r≥0.95)=%d; shards %d; durable rung: %d shards, %d buffered, %d tombstones",
		in.name, in.seed, cal90.lambda, cal95.lambda, sx.Shards(), dur.Shards(), buffered, dur.Deleted())

	tr := &tracer{t0: time.Now()}
	nShards := sx.Shards()
	lambdaShard := (lambda + nShards - 1) / nShards
	searcher := rep.csa.NewSearcher()
	meta := vec.MetaFromRows(in.attrs())
	var (
		hq       []int32
		accepted []int32
		gathered = make([]float64, lambdaShard+k)
		bufDists = make([]float32, max(buffered, 1))
		dst      = make([]lccs.Neighbor, 0, k)
		shardDst = make([]lccs.Neighbor, 0, k)
		coreDst  []pqueue.Neighbor
		w        = &memWriter{h: http.Header{}}
		c        = newClient()
		body     []byte
		untraced []float64 // whole-query time of untraced queries, µs
	)
	defer c.close()
	var sum struct {
		queries, drained, acceptedN, comparisons int64
		candidates, filterRejected, bytes        int64
	}
	deadline := time.Now().Add(d)
	i := 0
	for ; time.Now().Before(deadline); i++ {
		tr.on = i%2 == 0
		q, t := in.query(i)
		f := filterFor(t)
		var accept func(int) bool
		if t >= 0 {
			// The predicate the sharded index applies to each drained row.
			accept = func(id int) bool { return f.Matches(meta.Row(id)) }
		}
		body = searchBody(body, q, t, lambda)
		req, err := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		w.reset()
		start := time.Now()
		root := tr.begin("ladder.query", i, -1)

		sp := tr.begin("lshfamily.hash", i, root)
		hq = lshfamily.HashString(rep.funcs, q, hq)
		tr.end(sp)

		sp = tr.begin("csa.drain", i, root)
		var rejected int
		accepted, rejected = drain(searcher, hq, lambdaShard+k-1, accept, accepted)
		tr.endN(sp, len(accepted)+rejected)
		comparisons := searcher.Comparisons()

		sp = tr.begin("vec.gather", i, root)
		rep.store.GatherDistancesInto(accepted, q, rep.metric, gathered)
		tr.endN(sp, len(accepted))

		for s, ix := range rep.cores {
			var shardAccept func(int) bool
			if accept != nil {
				off := offsets[s]
				shardAccept = func(id int) bool { return accept(off + id) }
			}
			sp = tr.begin("core.search", i, root)
			var st core.SearchStats
			coreDst, st = ix.SearchFilterOffsetIntoStats(q, k, lambdaShard, offsets[s], shardAccept, coreDst)
			tr.end(sp)
			if s == 0 && (st.Comparisons != comparisons || st.Candidates != len(accepted) || st.FilterRejected != rejected) {
				tl.add(fmt.Sprintf("ladder replica drifted from shard 0: comparisons %d/%d, candidates %d/%d, rejected %d/%d",
					comparisons, st.Comparisons, len(accepted), st.Candidates, rejected, st.FilterRejected))
			}
		}

		var co lccs.Cost
		sp = tr.begin("shard.search", i, root)
		shardRes, err := sx.SearchCostInto(q, k, lambda, f, shardDst[:0], &co, nil)
		tr.end(sp)
		if err != nil {
			tl.add("shard search: " + err.Error())
		}

		sp = tr.begin("dynamic.search", i, root)
		var dco lccs.Cost // metered, as the server calls it
		dynRes, err := dur.SearchCostInto(q, k, lambda, f, dst[:0], &dco, nil)
		tr.end(sp)
		if err != nil {
			tl.add("dynamic search: " + err.Error())
		}

		sp = tr.begin("vec.buffer_scan", i, root)
		if buffered > 0 {
			bufStore.DistancesInto(0, buffered, q, rep.metric, bufDists)
		}
		tr.end(sp)

		sp = tr.begin("server.handle", i, root)
		memSrv.Handler().ServeHTTP(w, req)
		tr.end(sp)

		var r record
		sp = tr.begin("http.request", i, root)
		c.search(st.base, q, t, lambda, &r)
		tr.end(sp)
		tr.end(root)
		if !tr.on {
			untraced = append(untraced, float64(time.Since(start))/1e3)
		}

		// The served answer must equal the backend's, in memory and
		// over the wire, and pass the output checks.
		want := shardRes
		if in.name == writeMix {
			want = dynRes
		}
		memIDs, err := replyIDs(w.body.Bytes())
		switch {
		case w.code != http.StatusOK || err != nil:
			tl.add(fmt.Sprintf("in-memory search: status %d", w.code))
		case !sameIDs(memIDs, want):
			tl.add("in-memory server answer differs from its backend's")
		default:
			tl.add("")
		}
		r.start = time.Duration(1) // after the tail deletes
		if fault := ck.searchFault(&r, q, t); fault != "" {
			tl.add(fault)
		} else if !sameIDs(r.ids, want) {
			tl.add("loopback server answer differs from its backend's")
		} else {
			tl.add("")
		}
		sum.queries++
		sum.drained += int64(len(accepted) + rejected)
		sum.acceptedN += int64(len(accepted))
		sum.comparisons += int64(comparisons)
		sum.candidates += co.Candidates
		sum.filterRejected += co.FilterRejected
		sum.bytes += co.BytesScanned
	}
	if sum.queries == 0 {
		return nil, errors.New("the ladder completed no query")
	}
	nq := float64(sum.queries)
	out["csa.comparisons_per_query"] = float64(sum.comparisons) / nq
	out["core.candidates_per_query"] = float64(sum.candidates) / nq
	out["core.filter_rejected_per_query"] = float64(sum.filterRejected) / nq
	out["core.accept_ratio"] = float64(sum.acceptedN) / float64(max(sum.drained, 1))
	out["vec.scan_bytes_per_query"] = float64(sum.bytes) / nq

	// Allocations per in-memory request, over fresh queries.
	const allocReqs = 200
	reqs := make([]*http.Request, allocReqs)
	for j := range reqs {
		q, t := in.query(i + j)
		reqs[j], err = http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(searchBody(nil, q, t, lambda)))
		if err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, req := range reqs {
		w.reset()
		memSrv.Handler().ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&ms1)
	out["server.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / allocReqs
	cs := memSrv.StatsSnapshot().Cache
	ls2 := st.srv.StatsSnapshot().Cache
	out["server.cache_hit_ratio"] = float64(cs.Hits+ls2.Hits) / float64(max(cs.Hits+cs.Misses+ls2.Hits+ls2.Misses, 1))

	// The durable write rung: single inserts and deletes, then a
	// checkpoint.
	tr.on = true
	wal0 := dur.WALStats()
	writes := in.writes[:ladderWrites]
	for j, op := range writes {
		req := int(sum.queries) + j
		if op.del {
			sp := tr.begin("durable.delete", req, -1)
			_, err = dur.DeleteDurable(op.id)
			tr.end(sp)
		} else {
			sp := tr.begin("durable.add", req, -1)
			_, err = dur.AddWithAttrs(op.vec, op.attrs)
			tr.end(sp)
		}
		if err != nil {
			tl.add("durable write: " + err.Error())
		} else {
			tl.add("")
		}
	}
	wal1 := dur.WALStats()
	out["wal.writes_per_fsync"] = float64(len(writes)) / float64(max(wal1.Fsyncs-wal0.Fsyncs, 1))
	out["wal.bytes_per_write"] = float64(wal1.AppendedBytes-wal0.AppendedBytes) / float64(len(writes))
	dur.WaitRebuild()
	t0 = time.Now()
	if _, err := dur.Checkpoint(); err != nil {
		tl.add("checkpoint: " + err.Error())
	}
	out["durable.checkpoint_s"] = time.Since(t0).Seconds()
	diskBytes, err := dirBytes(prepared)
	if err != nil {
		return nil, err
	}
	out["durable.disk_amp"] = float64(diskBytes) / float64(dur.Len()*len(in.base[0])*4)

	// Per-layer times from the spans.
	times := layerTimes(tr.spans, nShards, in.name == writeMix)
	for name, v := range times {
		out[name] = v
	}
	logf("ladder query: median %.1f µs traced, %.1f µs untraced (the difference is mostly the queries' own spread)",
		times["ladder.query_us"], median(untraced))
	delete(out, "ladder.query_us")

	if err := writeSpans(in, tr.spans); err != nil {
		return nil, err
	}
	for _, s := range tl.summary() {
		logf("FAILED %s", s)
	}
	metrics := map[string]metric{}
	for _, lm := range layerMetrics {
		v, ok := out[lm.name]
		if !ok {
			return nil, fmt.Errorf("ladder produced no %s", lm.name)
		}
		metrics[lm.name] = metric{v, lm.unit}
	}
	logf("ladder: %d queries (%d traced), %d writes", sum.queries, (sum.queries+1)/2, len(writes))
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics}, nil
}

// layerTimes derives the per-layer times from the spans: per traced
// query, each rung's duration and each layer's self time (its rung
// minus the rung below it), reported as medians over queries. On
// write_mix the servers sit on the dynamic rung, elsewhere on the
// shard rung.
func layerTimes(spans []span, nShards int, dynamicBackend bool) map[string]float64 {
	type q struct {
		dur   map[string]float64 // µs, summed per name
		n     map[string]int     // items processed, per name
		cores []float64
	}
	byReq := map[int]*q{}
	order := []int{}
	var adds, dels []float64
	for _, s := range spans {
		us := float64(s.End-s.Start) / 1e3
		switch s.Name {
		case "durable.add":
			adds = append(adds, us)
			continue
		case "durable.delete":
			dels = append(dels, us)
			continue
		}
		e, ok := byReq[s.Req]
		if !ok {
			e = &q{dur: map[string]float64{}, n: map[string]int{}}
			byReq[s.Req] = e
			order = append(order, s.Req)
		}
		if s.Name == "core.search" {
			e.cores = append(e.cores, us)
		}
		e.dur[s.Name] += us
		e.n[s.Name] += s.N
	}
	series := map[string][]float64{}
	addTo := func(name string, v float64) { series[name] = append(series[name], v) }
	for _, r := range order {
		e := byReq[r]
		if len(e.cores) != nShards {
			continue
		}
		backend := e.dur["shard.search"]
		if dynamicBackend {
			backend = e.dur["dynamic.search"]
		}
		slowest := 0.0
		for _, c := range e.cores {
			slowest = max(slowest, c)
		}
		addTo("lshfamily.hash_us", e.dur["lshfamily.hash"])
		addTo("csa.drain_us", e.dur["csa.drain"])
		if n := e.n["csa.drain"]; n > 0 {
			addTo("csa.ns_per_candidate", e.dur["csa.drain"]*1e3/float64(n))
		}
		if n := e.n["vec.gather"]; n > 0 {
			addTo("vec.gather_ns_per_row", e.dur["vec.gather"]*1e3/float64(n))
		}
		addTo("core.search_us", e.cores[0])
		addTo("core.self_us", e.cores[0]-e.dur["lshfamily.hash"]-e.dur["csa.drain"]-e.dur["vec.gather"])
		addTo("vec.buffer_scan_us", e.dur["vec.buffer_scan"])
		addTo("shard.search_us", e.dur["shard.search"])
		addTo("shard.fanout_overhead_us", e.dur["shard.search"]-slowest)
		addTo("dynamic.search_us", e.dur["dynamic.search"])
		addTo("server.overhead_us", e.dur["server.handle"]-backend)
		addTo("http.transport_us", e.dur["http.request"]-e.dur["server.handle"])
		addTo("ladder.query_us", e.dur["ladder.query"])
		// The query span's self time: everything inside it that no layer
		// call covers, which is where the spans are recorded.
		self := e.dur["ladder.query"]
		for name, us := range e.dur {
			if name != "ladder.query" {
				self -= us
			}
		}
		addTo("trace.overhead_us", self)
	}
	out := map[string]float64{}
	for name, xs := range series {
		out[name] = median(xs)
	}
	out["durable.add_us"] = median(adds)
	out["durable.delete_us"] = median(dels)
	return out
}

// writeSpans writes the spans of the run, and a per-name summary, to
// .bench_build/spans-<workload>-<seed>.json.
func writeSpans(in *inputs, spans []span) error {
	type stat struct {
		Count     int     `json:"count"`
		MedianUS  float64 `json:"median_us"`
		SelfMedUS float64 `json:"self_median_us"`
	}
	durs := map[string][]float64{}
	self := map[string][]float64{}
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-children[i])/1e3)
	}
	summary := map[string]stat{}
	names := make([]string, 0, len(durs))
	for name := range durs {
		names = append(names, name)
		summary[name] = stat{len(durs[name]), median(durs[name]), median(self[name])}
	}
	sort.Strings(names)
	for _, name := range names {
		s := summary[name]
		logf("span %-16s n=%-6d median %9.2f µs  self %9.2f µs", name, s.Count, s.MedianUS, s.SelfMedUS)
	}
	data, err := json.Marshal(struct {
		Summary map[string]stat `json:"summary"`
		Spans   []span          `json:"spans"`
	}{summary, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", in.name, in.seed))
	return os.WriteFile(path, data, 0o644)
}
