package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lccs"
	"lccs/internal/vec"
)

const (
	// setupReps is how many times a run sets the daemon up; setup_s is
	// the median.
	setupReps = 3
	// checkpointEvery is write_mix's checkpoint schedule, in
	// acknowledged writes.
	checkpointEvery = 2500
	// windowWidth and keepShare choose the windows the search metrics
	// are taken over: the run's one-second windows that answered at
	// least 80% as many searches as its 90th-percentile window (see
	// undisturbedWindows). Every window holds over 150 searches on
	// every workload, so the pooled p95 has hundreds of samples beyond
	// it.
	windowWidth = time.Second
	keepShare   = 0.8
)

// start sets one daemon up: read workloads build and serve the index,
// write_mix recovers the durable directory dir and serves it. It
// returns once the server has answered a search.
func start(in *inputs, dir string) (*stack, error) {
	var st *stack
	var err error
	if in.name == writeMix {
		st, err = startDurable(dir, in.metric)
	} else {
		st, err = startStatic(in)
	}
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	t := int64(-1)
	if in.calibTenant != nil {
		t = in.calibTenant[0]
	}
	var r record
	c.search(st.base, in.calib[0], t, budgetFlag, &r)
	if r.status != http.StatusOK || r.bad != "" {
		st.close()
		return nil, fmt.Errorf("first search: status %d %s", r.status, r.bad)
	}
	return st, nil
}

// runEndToEnd sets the daemon up setupReps times, calibrates λ on the
// last one, drives the closed-loop load for d, and checks every answer.
func runEndToEnd(in *inputs, work string, d time.Duration) (*result, error) {
	m := vec.MetricByName(string(in.metric))
	var (
		prepared string
		tailIDs  []int
		err      error
	)
	if in.name == writeMix {
		prepared = filepath.Join(work, "prepared")
		if tailIDs, err = prepareDurable(prepared, in.metric, in.base, nil, in.tail); err != nil {
			return nil, fmt.Errorf("prepare durable directory: %w", err)
		}
	}

	heap0 := liveHeapMB()
	var st *stack
	var setups []float64
	var dir string
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			st = nil
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		if prepared != "" {
			dir = filepath.Join(work, fmt.Sprintf("data-%d", rep))
			if err := copyDir(dir, prepared); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if st, err = start(in, dir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	memMB := liveHeapMB() - heap0
	stopped := false
	defer func() {
		if !stopped {
			st.close()
		}
	}()

	rows, deletedAt := rowModel(in, tailIDs)
	live := func() (*liveSet, error) {
		if in.name != writeMix {
			return rowsLiveSet(in.base)
		}
		lr := make(map[int32][]float32, len(rows))
		for id, v := range rows {
			if _, dead := deletedAt[id]; !dead {
				lr[id] = v
			}
		}
		return newLiveSet(len(in.base[0]), lr), nil
	}
	tenantOf := func(id int32) int64 { return in.tenants[id] }

	ls, err := live()
	if err != nil {
		return nil, err
	}
	cal, err := calibrate(st.backend, len(ls.ids), in.calib, in.calibTenant, ls.truth(in.calib, in.calibTenant, m, tenantOf), recallTarget)
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	logf("%s seed %d: λ=%d (calibration recall %.3f)", in.name, in.seed, cal.lambda, cal.recall)

	plan := loadPlan{base: st.base, in: in, lambda: cal.lambda, searchers: 2}
	var (
		ckptWG    sync.WaitGroup
		ckptTimes []float64
		ckptErr   error
	)
	ckpt := make(chan struct{}, 1)
	shards0 := 0
	if in.name == writeMix {
		plan.searchers, plan.writer = 1, true
		plan.acked = func(n int) {
			if n%checkpointEvery == 0 {
				select {
				case ckpt <- struct{}{}:
				default: // one is still running; the schedule skips a beat
				}
			}
		}
		shards0 = st.dur.Shards()
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			for range ckpt {
				t0 := time.Now()
				if _, err := st.dur.Checkpoint(); err != nil && ckptErr == nil {
					ckptErr = err
				}
				ckptTimes = append(ckptTimes, time.Since(t0).Seconds())
			}
		}()
	}
	records, elapsed := runLoad(plan, d)
	close(ckpt)
	ckptWG.Wait()

	var tl tally
	if ckptErr != nil {
		tl.add("checkpoint: " + ckptErr.Error())
	}
	var (
		searches            []searchSample
		searchLat, writeLat []float64
	)
	searchesOK, writesOK := 0, 0
	sample := map[int]*record{}
	for i := range records {
		r := &records[i]
		ms := float64(r.latency()) / 1e6
		switch r.kind {
		case opSearch:
			ok := r.status == http.StatusOK && r.bad == ""
			searches = append(searches, searchSample{r.start, ms, ok})
			searchLat = append(searchLat, ms)
			if ok {
				searchesOK++
			}
			if r.seq < recallSample {
				sample[r.seq] = r
			}
		default:
			writeLat = append(writeLat, ms)
			fault := writeFault(r)
			tl.add(fault)
			if fault != "" {
				continue
			}
			writesOK++
			op := in.writes[r.seq]
			if op.del {
				deletedAt[int32(op.id)] = r.end
			} else {
				rows[r.ids[0]] = op.vec
			}
		}
	}
	ck := &checker{metric: m, deletedAt: deletedAt,
		vector: func(id int32) []float32 { return rows[id] }}
	if in.tenants != nil {
		ck.tenant = tenantOf
	}
	for i := range records {
		if r := &records[i]; r.kind == opSearch {
			q, t := in.query(r.seq)
			tl.add(ck.searchFault(r, q, t))
		}
	}

	// Recall: on the read workloads, of the answers served to the first
	// recallSample queries; on write_mix, of the same queries sent again
	// once writes have stopped, against the final live set.
	if in.name == writeMix {
		c := newClient()
		for seq := 0; seq < recallSample; seq++ {
			q, t := in.query(seq)
			r := &record{seq: seq}
			c.search(st.base, q, t, cal.lambda, r)
			r.start = time.Duration(math.MaxInt64) // after every write
			tl.add(ck.searchFault(r, q, t))
			sample[seq] = r
		}
		c.close()
	}
	if ls, err = live(); err != nil {
		return nil, err
	}
	recall, scored := 0.0, 0
	for seq := 0; seq < recallSample; seq++ {
		r, ok := sample[seq]
		if !ok || r.status != http.StatusOK || r.bad != "" {
			continue
		}
		q, t := in.query(seq)
		var tenantsQ []int64
		if t >= 0 {
			tenantsQ = []int64{t}
		}
		recall += recallAt(r.ids, ls.truth([][]float32{q}, tenantsQ, m, tenantOf)[0])
		scored++
	}
	if scored == 0 {
		return nil, fmt.Errorf("no recall sample query was answered")
	}
	recall /= float64(scored)

	if in.name == writeMix {
		shards1 := st.dur.Shards()
		stopped = true
		if err := st.close(); err != nil {
			return nil, err
		}
		durabilityCheck(dir, in.metric, rows, deletedAt, &tl)
		logf("writes: %d acknowledged in %.1fs (%.0f/s), p50 %.3f ms, p99 %.3f ms over %d; %d checkpoints %v s; shards %d → %d",
			writesOK, elapsed.Seconds(), float64(writesOK)/elapsed.Seconds(),
			percentile(writeLat, 50), percentile(writeLat, 99), len(writeLat), len(ckptTimes), ckptTimes, shards0, shards1)
	}

	qps, p50, p95, kept := undisturbedWindows(searches, d, windowWidth, keepShare)
	logf("searches: %d answered in %.1fs (%.1f/s), p50 %.3f ms and p99 %.3f ms over all %d; over the %d undisturbed of %d windows: %.1f/s, p50 %.3f ms, p95 %.3f ms; recall@%d %.4f over %d; setup %v s",
		searchesOK, elapsed.Seconds(), float64(searchesOK)/elapsed.Seconds(), percentile(searchLat, 50), percentile(searchLat, 99), len(searchLat),
		kept, int(d/windowWidth), qps, p50, p95, k, recall, scored, setups)
	for _, s := range tl.summary() {
		logf("FAILED %s", s)
	}
	values := map[string]float64{
		"search_qps":    qps,
		"search_p50_ms": p50,
		"search_p95_ms": p95,
		"recall_at_10":  recall,
		"setup_s":       median(setups),
		"mem_mb":        memMB,
	}
	metrics := map[string]metric{}
	for _, em := range endToEndMetrics {
		metrics[em.name] = metric{values[em.name], em.unit}
	}
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics}, nil
}

// endToEndMetrics lists the metrics an end-to-end run reports, with
// their units.
var endToEndMetrics = []struct{ name, unit string }{
	{"search_qps", "1/s"},
	{"search_p50_ms", "ms"},
	{"search_p95_ms", "ms"},
	{"recall_at_10", "ratio"},
	{"setup_s", "s"},
	{"mem_mb", "MiB"},
}

// rowModel is what the client knows of the served rows: every vector
// written, by id, and the ids acknowledged deleted with when the reply
// came (0 for the WAL tail). tailIDs are the ids the tail's inserts got;
// nil when the served backend holds the base rows only.
func rowModel(in *inputs, tailIDs []int) (map[int32][]float32, map[int32]time.Duration) {
	rows := make(map[int32][]float32, len(in.base)+len(tailIDs))
	for i, v := range in.base {
		rows[int32(i)] = v
	}
	deletedAt := map[int32]time.Duration{}
	if tailIDs == nil {
		return rows, deletedAt
	}
	ti := 0
	for _, op := range in.tail {
		if op.del {
			deletedAt[int32(op.id)] = 0
			continue
		}
		rows[int32(tailIDs[ti])] = op.vec
		ti++
	}
	return rows, deletedAt
}

// durabilityCheck reopens the closed (not checkpointed) directory and
// verifies, through the public API only, that every acknowledged insert
// reads back byte-equal and is found by an exhaustive search, and that
// no acknowledged delete is found. Each violation is one more failed
// operation.
func durabilityCheck(dir string, metric lccs.MetricKind, rows map[int32][]float32, deletedAt map[int32]time.Duration, tl *tally) {
	dur, err := lccs.OpenDurable(dir, durableConfig(metric))
	if err != nil {
		tl.add("reopen: " + err.Error())
		return
	}
	defer dur.Close()
	maxID := int32(0)
	for id := range rows {
		maxID = max(maxID, id)
	}
	var probe []float32
	for _, v := range rows {
		probe = v
		break
	}
	all, err := dur.SearchBudget(probe, int(maxID)+1, math.MaxInt32)
	if err != nil {
		tl.add("exhaustive search after reopen: " + err.Error())
		return
	}
	found := make(map[int32]bool, len(all))
	for _, nb := range all {
		found[int32(nb.ID)] = true
	}
	for id, want := range rows {
		_, deleted := deletedAt[id]
		switch {
		case deleted && found[id]:
			tl.add(fmt.Sprintf("acknowledged delete of id %d undone by recovery", id))
		case deleted:
			// Stays deleted, as it must.
		case !found[id]:
			tl.add(fmt.Sprintf("acknowledged insert of id %d lost by recovery", id))
		case !sameBits(dur.Vector(int(id)), want):
			tl.add(fmt.Sprintf("acknowledged insert of id %d reads back changed", id))
		}
	}
}

// sameBits reports whether two vectors are byte-equal.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
