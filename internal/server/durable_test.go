package server

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"lccs"
)

// openDurableBackend stands up a DurableIndex over a test temp dir.
func openDurableBackend(t *testing.T, dir string) *lccs.DurableIndex {
	t.Helper()
	di, err := lccs.OpenDurable(dir, lccs.DurableConfig{
		Config:       lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 1, BucketWidth: 4},
		SegmentBytes: 4096,
		RebuildAt:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { di.Close() })
	return di
}

// TestDurableBackendEndToEnd drives the full HTTP surface over a
// durable backend: batch insert through AddBatch (one journal wait),
// durable delete, WAL health in /v1/stats and /metrics, and recovery
// after an in-process crash (the index is abandoned, a second one is
// opened over the same dir).
func TestDurableBackendEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data, queries := testWorkload(91, 200, 8)
	di := openDurableBackend(t, dir)
	_, ts := newTestServer(t, Config{Backend: di})

	var ins insertResponse
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data}, &ins); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	if len(ins.IDs) != len(data) || ins.IDs[0] != 0 {
		t.Fatalf("insert ids: %d starting at %d", len(ins.IDs), ins.IDs[0])
	}
	var del deleteResponse
	if code := postJSON(t, ts, "/v1/delete", map[string]any{"ids": []int{3, 9999}}, &del); code != http.StatusOK {
		t.Fatalf("delete: HTTP %d", code)
	}
	if del.Deleted != 1 || len(del.Missing) != 1 {
		t.Fatalf("delete response %+v", del)
	}

	// Stats must expose the durable backend kind and WAL health.
	var st Stats
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Backend.Kind != "durable" || !st.Backend.Writable {
		t.Fatalf("backend stats %+v", st.Backend)
	}
	if st.WAL == nil {
		t.Fatal("stats missing wal section on a durable backend")
	}
	if st.WAL.Depth != uint64(len(data))+1 {
		t.Fatalf("wal depth %d, want %d", st.WAL.Depth, len(data)+1)
	}
	if st.WAL.Policy != "always" || st.WAL.Fsyncs == 0 {
		t.Fatalf("wal stats %+v", st.WAL)
	}

	// Metrics must carry the WAL gauges.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"lccs_wal_depth_records", "lccs_wal_fsyncs_total", "lccs_wal_segments", "lccs_wal_bytes"} {
		if !strings.Contains(string(blob), metric) {
			t.Errorf("metrics missing %s", metric)
		}
	}

	// Crash: abandon the backend (no checkpoint, no close), reopen the
	// directory, and serve the recovered index — every acknowledged
	// write must be there.
	di.WaitRebuild()
	di2 := openDurableBackend(t, dir)
	if di2.Len() != len(data)-1 {
		t.Fatalf("recovered %d live vectors, want %d", di2.Len(), len(data)-1)
	}
	_, ts2 := newTestServer(t, Config{Backend: di2})
	var res searchResponse
	if code := postJSON(t, ts2, "/v1/search", searchRequest{Query: queries[0], K: 5, Budget: 1 << 20}, &res); code != http.StatusOK {
		t.Fatalf("search after recovery: HTTP %d", code)
	}
	if len(res.Neighbors) != 5 {
		t.Fatalf("search after recovery returned %d neighbors", len(res.Neighbors))
	}
	for _, nb := range res.Neighbors {
		if nb.ID == 3 {
			t.Fatal("deleted id 3 resurrected after crash recovery")
		}
	}
}

// TestDurableInsertNotAckedAfterClose pins the lost-ack fix: once the
// WAL cannot accept writes, /v1/insert and /v1/delete answer 5xx, never
// a 200 the crash could betray.
func TestDurableInsertNotAckedAfterClose(t *testing.T) {
	dir := t.TempDir()
	data, _ := testWorkload(92, 10, 8)
	di := openDurableBackend(t, dir)
	_, ts := newTestServer(t, Config{Backend: di})
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data[:5]}, nil); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	// Break the log the way an exhausted disk would: close it.
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data[5:]}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("insert on broken WAL: HTTP %d, want 503", code)
	}
	if code := postJSON(t, ts, "/v1/delete", map[string]any{"id": 0}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("delete on broken WAL: HTTP %d, want 503", code)
	}
}

// TestInsertRejectsNonFiniteVector: a vector with a NaN or ±Inf
// component is a 400 on a durable collection and is never journaled.
// JSON cannot spell NaN and a float32 overflow such as 1e39 fails the
// decode, so the HTTP request is refused before the index; the batch
// path behind it maps the index's own ErrNonFiniteVector to 400 too.
func TestInsertRejectsNonFiniteVector(t *testing.T) {
	data, _ := testWorkload(93, 20, 8)
	di := openDurableBackend(t, t.TempDir())
	s, ts := newTestServer(t, Config{Backend: di})
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data}, nil); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	wal := di.WALStats().AppendedBytes

	overflow := json.RawMessage(`{"vectors":[[1e39,0,0,0,0,0,0,0]]}`)
	if code := postJSON(t, ts, "/v1/insert", overflow, nil); code != http.StatusBadRequest {
		t.Fatalf("overflowing component: HTTP %d, want 400", code)
	}
	bad := append([]float32(nil), data[0]...)
	bad[1] = float32(math.NaN())
	ids, _, code, err := s.applyInserts(s.colls["default"], [][]float32{bad}, nil)
	if code != http.StatusBadRequest || !errors.Is(err, lccs.ErrNonFiniteVector) || len(ids) != 0 {
		t.Fatalf("NaN insert: ids %v HTTP %d err=%v, want none, 400, ErrNonFiniteVector", ids, code, err)
	}
	if got := di.WALStats().AppendedBytes; got != wal {
		t.Fatalf("rejected inserts grew the WAL: %d → %d bytes", wal, got)
	}
	if di.Len() != len(data) {
		t.Fatalf("Len %d, want %d", di.Len(), len(data))
	}
}
