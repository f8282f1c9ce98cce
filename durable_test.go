package lccs

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// durableCfg is the shared test configuration: a small rebuild
// threshold exercises the background delta builds during replay, and a
// tiny WAL segment size exercises rotation.
func durableCfg() DurableConfig {
	return DurableConfig{
		Config:       Config{Metric: Euclidean, M: 8, Seed: 1, BucketWidth: 4},
		Sync:         SyncAlways,
		SegmentBytes: 4096,
		RebuildAt:    64,
	}
}

// crash abandons a DurableIndex without Close or Checkpoint — the
// in-process stand-in for SIGKILL: whatever reached the OS is on disk,
// everything else (including the open file handles) is simply dropped.
func crash(di *DurableIndex) {
	di.WaitRebuild() // quiesce background goroutines touching the store
}

func mustOpenDurable(t *testing.T, dir string) *DurableIndex {
	t.Helper()
	di, err := OpenDurable(dir, durableCfg())
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return di
}

// searchIDs returns the id set of a full-budget search around q.
func searchIDs(t *testing.T, s Searcher, q []float32, k int) map[int]bool {
	t.Helper()
	res, err := s.SearchBudget(q, k, 1<<20)
	if err != nil {
		t.Fatalf("SearchBudget: %v", err)
	}
	ids := make(map[int]bool, len(res))
	for _, nb := range res {
		ids[nb.ID] = true
	}
	return ids
}

// TestCrashRecoveryTwoCycles is the satellite crash simulation: write
// through the WAL, drop the index without any shutdown path, reopen
// from the directory — twice — and assert that acknowledged inserts are
// searchable, acknowledged deletes stay dead, and the id watermark
// never reuses a deleted id.
func TestCrashRecoveryTwoCycles(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(71, 300, 8, 4, 0.5)

	// Cycle 0: fresh dir, ingest, delete a few, crash.
	di := mustOpenDurable(t, dir)
	for _, v := range data[:200] {
		if _, err := di.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	deleted := []int{0, 50, 199}
	for _, id := range deleted {
		if ok, err := di.DeleteDurable(id); !ok || err != nil {
			t.Fatalf("DeleteDurable(%d) = %v, %v", id, ok, err)
		}
	}
	crash(di)

	// Cycle 1: recover, verify, write more, crash again.
	di2 := mustOpenDurable(t, dir)
	rec := di2.Recovery()
	if rec.Records != 203 {
		t.Fatalf("cycle 1 replayed %d records, want 203", rec.Records)
	}
	if di2.Len() != 197 {
		t.Fatalf("cycle 1 recovered %d live vectors, want 197", di2.Len())
	}
	for _, id := range deleted {
		ids := searchIDs(t, di2, data[id], 200)
		if ids[id] {
			t.Fatalf("cycle 1: deleted id %d resurrected", id)
		}
	}
	// A surviving neighbor must be searchable with its original id.
	if ids := searchIDs(t, di2, data[120], 1); !ids[120] {
		t.Fatalf("cycle 1: inserted id 120 not searchable: %v", ids)
	}
	// Watermark: the next insert must not reuse any id, deleted or not.
	id, err := di2.Add(data[200])
	if err != nil {
		t.Fatalf("Add after recovery: %v", err)
	}
	if id != 200 {
		t.Fatalf("cycle 1: watermark broken: new id %d, want 200", id)
	}
	if ok, err := di2.DeleteDurable(id); !ok || err != nil {
		t.Fatalf("DeleteDurable(%d): %v, %v", id, ok, err)
	}
	for _, v := range data[201:250] {
		if _, err := di2.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	crash(di2)

	// Cycle 2: everything from both crashed processes must be there.
	di3 := mustOpenDurable(t, dir)
	defer di3.Close()
	if di3.Len() != 197+49 {
		t.Fatalf("cycle 2 recovered %d live vectors, want %d", di3.Len(), 197+49)
	}
	for _, id := range append(deleted, 200) {
		if ids := searchIDs(t, di3, data[id], 250); ids[id] {
			t.Fatalf("cycle 2: deleted id %d resurrected", id)
		}
	}
	if ids := searchIDs(t, di3, data[240], 1); !ids[240] {
		t.Fatalf("cycle 2: id 240 from the second crashed process not searchable")
	}
	if id, err := di3.Add(data[250]); err != nil || id != 250 {
		t.Fatalf("cycle 2: watermark broken: new id %d (err %v), want 250", id, err)
	}
}

// TestCheckpointThenCrashSkipsReplayed asserts the checkpoint protocol:
// records captured by the snapshot are not replayed again, and writes
// after the checkpoint are.
func TestCheckpointThenCrashSkipsReplayed(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(72, 150, 8, 4, 0.5)
	di := mustOpenDurable(t, dir)
	for _, v := range data[:100] {
		if _, err := di.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	di.DeleteDurable(7)
	info, err := di.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if info.Skipped || info.LSN != 101 {
		t.Fatalf("checkpoint info %+v, want LSN 101", info)
	}
	// Post-checkpoint writes only exist in the WAL.
	for _, v := range data[100:150] {
		if _, err := di.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	di.DeleteDurable(120)
	crash(di)

	di2 := mustOpenDurable(t, dir)
	defer di2.Close()
	rec := di2.Recovery()
	if rec.Records != 51 {
		t.Fatalf("replayed %d records, want 51 (only post-checkpoint)", rec.Records)
	}
	if rec.SnapshotVectors == 0 {
		t.Fatal("recovery did not load the snapshot")
	}
	if di2.Len() != 148 {
		t.Fatalf("recovered %d live, want 148", di2.Len())
	}
	for _, id := range []int{7, 120} {
		if ids := searchIDs(t, di2, data[id], 150); ids[id] {
			t.Fatalf("deleted id %d resurrected across checkpoint+crash", id)
		}
	}
	if id, _ := di2.Add(data[0]); id != 150 {
		t.Fatalf("watermark after checkpoint+crash: new id %d, want 150", id)
	}
}

// TestCheckpointBoundsDataDir asserts that steady churn with periodic
// checkpoints cannot grow the data directory unboundedly: after each
// checkpoint the WAL is truncated to a single empty active segment and
// exactly one snapshot generation remains on disk.
func TestCheckpointBoundsDataDir(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(73, 1200, 8, 4, 0.5)
	di := mustOpenDurable(t, dir)
	defer di.Close()
	next := 0
	for round := 0; round < 4; round++ {
		for i := 0; i < 300; i++ {
			if _, err := di.Add(data[next]); err != nil {
				t.Fatal(err)
			}
			if next > 0 && i%3 == 0 {
				di.DeleteDurable(next - 1)
			}
			next++
		}
		if _, err := di.Checkpoint(); err != nil {
			t.Fatalf("round %d checkpoint: %v", round, err)
		}
		st := di.WALStats()
		if st.Depth != 0 {
			t.Fatalf("round %d: WAL depth %d after checkpoint, want 0", round, st.Depth)
		}
		if st.Segments != 1 {
			t.Fatalf("round %d: %d WAL segments after checkpoint, want 1 empty active", round, st.Segments)
		}
		snaps := snapshotFiles(t, dir)
		if len(snaps) != 2 {
			t.Fatalf("round %d: snapshot files %v, want exactly one generation (2 files)", round, snaps)
		}
	}
}

func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if ok, _ := filepath.Match("snapshot-*", e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestDurableEmptyLifecycle covers the fresh-directory edge: an empty
// index checkpoint is skipped, recovery of an untouched dir yields an
// empty writable index, and the very first insert fixes the
// dimensionality.
func TestDurableEmptyLifecycle(t *testing.T) {
	dir := t.TempDir()
	di := mustOpenDurable(t, dir)
	info, err := di.Checkpoint()
	if err != nil || !info.Skipped {
		t.Fatalf("empty checkpoint = %+v, %v; want skipped", info, err)
	}
	if err := di.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	di2 := mustOpenDurable(t, dir)
	defer di2.Close()
	if di2.Len() != 0 {
		t.Fatalf("empty dir recovered %d vectors", di2.Len())
	}
	if id, err := di2.Add([]float32{1, 2, 3}); err != nil || id != 0 {
		t.Fatalf("first insert: id %d, err %v", id, err)
	}
	if _, err := di2.Add([]float32{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("dimension mismatch not rejected: %v", err)
	}
}

// TestDurableAddBatch covers the bulk path: one journal wait for the
// batch, ids in order, and the batch surviving a crash.
func TestDurableAddBatch(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(74, 200, 8, 4, 0.5)
	di := mustOpenDurable(t, dir)
	ids, err := di.AddBatch(data[:128])
	if err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if len(ids) != 128 || ids[0] != 0 || ids[127] != 127 {
		t.Fatalf("AddBatch ids %v...", ids[:3])
	}
	// A validation error mid-batch keeps (and journals) the prefix.
	bad := [][]float32{data[128], {1, 2}, data[129]}
	ids, err = di.AddBatch(bad)
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("AddBatch with bad vector: %v", err)
	}
	if len(ids) != 1 || ids[0] != 128 {
		t.Fatalf("AddBatch prefix ids = %v, want [128]", ids)
	}
	crash(di)
	di2 := mustOpenDurable(t, dir)
	defer di2.Close()
	if di2.Len() != 129 {
		t.Fatalf("recovered %d vectors, want 129", di2.Len())
	}
	if ids := searchIDs(t, di2, data[128], 1); !ids[128] {
		t.Fatal("prefix insert of failed batch lost")
	}
}

// TestDurableRejectsNonFiniteVectors: a non-finite vector is a
// validation error on every durable write path — nothing is applied or
// journaled (the WAL does not grow) — while a row with a NaN component
// that is already journaled still replays, so logs written before the
// check keep recovering.
func TestDurableRejectsNonFiniteVectors(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(76, 10, 8, 2, 0.5)
	di := mustOpenDurable(t, dir)
	if _, err := di.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	bad := append([]float32(nil), data[0]...)
	bad[2] = float32(math.NaN())
	walBytes := di.WALStats().AppendedBytes
	if _, err := di.Add(bad); !errors.Is(err, ErrNonFiniteVector) {
		t.Fatalf("Add: err=%v, want ErrNonFiniteVector", err)
	}
	if ids, err := di.AddBatch([][]float32{bad}); !errors.Is(err, ErrNonFiniteVector) || len(ids) != 0 {
		t.Fatalf("AddBatch: ids %v err=%v, want none and ErrNonFiniteVector", ids, err)
	}
	if got := di.WALStats().AppendedBytes; got != walBytes {
		t.Fatalf("rejected writes grew the WAL: %d → %d bytes", walBytes, got)
	}
	if di.Len() != len(data) {
		t.Fatalf("Len %d after rejected writes, want %d", di.Len(), len(data))
	}

	// A row journaled before the check existed: append its record
	// directly, as an older build would have, then crash and recover.
	lsn, err := di.log.Append(insertRecord(len(data), bad, nil))
	if err == nil {
		err = di.log.WaitDurable(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
	crash(di)
	di2 := mustOpenDurable(t, dir)
	defer di2.Close()
	if di2.Len() != len(data)+1 {
		t.Fatalf("recovered %d vectors, want %d (the journaled row must replay)", di2.Len(), len(data)+1)
	}
}

// TestDurableConcurrentWriters hammers the group-commit path under
// -race and verifies every acknowledged write survives a crash.
func TestDurableConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(75, 400, 8, 4, 0.5)
	di := mustOpenDurable(t, dir)
	const writers = 8
	perWriter := len(data) / writers
	acked := make([][]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id, err := di.Add(data[w*perWriter+i])
				if err == nil {
					acked[w] = append(acked[w], id)
				}
			}
		}(w)
	}
	wg.Wait()
	// A few durable deletes interleaved with background builds.
	if ok, err := di.DeleteDurable(acked[0][0]); !ok || err != nil {
		t.Fatalf("DeleteDurable: %v %v", ok, err)
	}
	crash(di)

	di2 := mustOpenDurable(t, dir)
	defer di2.Close()
	total := 0
	seen := map[int]bool{}
	for _, ids := range acked {
		total += len(ids)
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("id %d acked twice", id)
			}
			seen[id] = true
		}
	}
	if di2.Len() != total-1 {
		t.Fatalf("recovered %d live vectors, want %d", di2.Len(), total-1)
	}
}

// TestDurableSyncPolicies exercises interval and none end to end: acks
// still survive an abandoned (not closed) index because the bytes
// reached the OS before the ack.
func TestDurableSyncPolicies(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncInterval, SyncNone} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			data, _ := testData(76, 100, 8, 4, 0.5)
			cfg := durableCfg()
			cfg.Sync = sync
			di, err := OpenDurable(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range data {
				if _, err := di.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			crash(di)
			di2, err := OpenDurable(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer di2.Close()
			if di2.Len() != len(data) {
				t.Fatalf("recovered %d, want %d", di2.Len(), len(data))
			}
		})
	}
}

// TestDurableWALStats sanity-checks the stats surface the server
// exposes.
func TestDurableWALStats(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(77, 50, 8, 4, 0.5)
	di := mustOpenDurable(t, dir)
	defer di.Close()
	for _, v := range data {
		if _, err := di.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	st := di.WALStats()
	if st.Policy != "always" {
		t.Errorf("policy %q", st.Policy)
	}
	if st.Depth != 50 || st.LastLSN != 50 {
		t.Errorf("depth %d lastLSN %d, want 50/50", st.Depth, st.LastLSN)
	}
	if st.SyncedLSN != 50 {
		t.Errorf("SyncedLSN %d under always, want 50", st.SyncedLSN)
	}
	if st.Fsyncs == 0 || st.MeanFsyncMicros <= 0 {
		t.Errorf("fsync stats empty: %+v", st)
	}
	if st.Bytes == 0 || st.Segments == 0 {
		t.Errorf("segment stats empty: %+v", st)
	}
	if _, err := di.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := di.WALStats(); st.Depth != 0 || st.CheckpointLSN != 50 {
		t.Errorf("post-checkpoint stats %+v", st)
	}
}

// TestDurableRejectsWrongDir asserts OpenDurable fails loudly on a
// corrupt manifest rather than silently starting empty.
func TestDurableRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, durableCfg()); err == nil {
		t.Fatal("corrupt manifest must fail OpenDurable")
	}
}

// TestDurableSearchConformance: a durable index must answer exactly
// like the dynamic index it embeds — spot-check against brute force
// over the live set.
func TestDurableSearchConformance(t *testing.T) {
	dir := t.TempDir()
	data, g := testData(78, 300, 8, 4, 0.5)
	di := mustOpenDurable(t, dir)
	defer di.Close()
	if _, err := di.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		di.DeleteDurable(g.IntN(len(data)))
	}
	di.WaitRebuild()
	q := data[g.IntN(len(data))]
	got, err := di.SearchBudget(q, 10, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results", len(got))
	}
	// Results must exclude tombstones and be distance-sorted.
	for i, nb := range got {
		if v := di.Vector(nb.ID); v == nil {
			t.Fatalf("result %d: id %d has no vector", i, nb.ID)
		}
		if i > 0 && got[i-1].Dist > nb.Dist {
			t.Fatalf("results not sorted at %d", i)
		}
	}
}

// TestDurableCloseIsClean: graceful close (checkpoint + close) leaves a
// directory that recovers instantly with zero replay.
func TestDurableCloseIsClean(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(79, 120, 8, 4, 0.5)
	di := mustOpenDurable(t, dir)
	if _, err := di.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	if _, err := di.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	di2 := mustOpenDurable(t, dir)
	defer di2.Close()
	rec := di2.Recovery()
	if rec.Records != 0 {
		t.Fatalf("clean restart replayed %d records", rec.Records)
	}
	if di2.Len() != len(data) {
		t.Fatalf("clean restart lost data: %d != %d", di2.Len(), len(data))
	}
}

// TestCheckpointOnEmptiedIndex: deleting every vector must not wedge
// the checkpoint loop — an empty state checkpoints as a container-less
// manifest carrying the id watermark, the WAL truncates, and recovery
// restores an empty index that never reissues a deleted id.
func TestCheckpointOnEmptiedIndex(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(81, 30, 8, 4, 0.5)
	di := mustOpenDurable(t, dir)
	ids, err := di.AddBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if deleted, missing, err := di.DeleteBatch(ids); deleted != len(ids) || len(missing) != 0 || err != nil {
		t.Fatalf("DeleteBatch = %d, %v, %v", deleted, missing, err)
	}
	info, err := di.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint on emptied index: %v", err)
	}
	if info.Skipped || info.Container != "" {
		t.Fatalf("emptied-index checkpoint %+v, want committed container-less manifest", info)
	}
	if st := di.WALStats(); st.Depth != 0 || st.Segments != 1 {
		t.Fatalf("WAL not truncated by empty checkpoint: %+v", st)
	}
	// A second checkpoint with nothing new skips.
	if info, err := di.Checkpoint(); err != nil || !info.Skipped {
		t.Fatalf("idle empty checkpoint = %+v, %v; want skipped", info, err)
	}
	crash(di)
	di2 := mustOpenDurable(t, dir)
	defer di2.Close()
	if di2.Len() != 0 {
		t.Fatalf("recovered %d vectors from emptied index", di2.Len())
	}
	if rec := di2.Recovery(); rec.Records != 0 {
		t.Fatalf("empty checkpoint did not truncate: %d records replayed", rec.Records)
	}
	if id, err := di2.Add(data[0]); err != nil || id != len(data) {
		t.Fatalf("watermark lost across empty checkpoint: id %d (err %v), want %d", id, err, len(data))
	}
}

// TestDurableDeleteBatch covers the bulk delete path: one durability
// wait for the batch, idempotent missing reporting, survival across a
// crash.
func TestDurableDeleteBatch(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(82, 100, 8, 4, 0.5)
	di := mustOpenDurable(t, dir)
	if _, err := di.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	fsyncsBefore := di.WALStats().Fsyncs
	deleted, missing, err := di.DeleteBatch([]int{1, 2, 3, 2, 999})
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 3 || len(missing) != 2 {
		t.Fatalf("DeleteBatch = %d deleted, %v missing", deleted, missing)
	}
	if got := di.WALStats().Fsyncs - fsyncsBefore; got > 1 {
		t.Fatalf("batch delete cost %d fsyncs, want at most 1", got)
	}
	crash(di)
	di2 := mustOpenDurable(t, dir)
	defer di2.Close()
	if di2.Len() != len(data)-3 {
		t.Fatalf("recovered %d live, want %d", di2.Len(), len(data)-3)
	}
	for _, id := range []int{1, 2, 3} {
		if ids := searchIDs(t, di2, data[id], 100); ids[id] {
			t.Fatalf("batch-deleted id %d resurrected", id)
		}
	}
}

// TestWritesAfterCleanRestartSurviveNextCrash pins an LSN-continuity
// regression: after a checkpoint truncates every WAL segment and the
// process restarts, the log has no segments left to derive its LSN
// sequence from. Without flooring it at the manifest watermark, fresh
// writes would restart at LSN 1 and the *next* recovery would skip
// them as already checkpointed — silent loss of acknowledged writes.
func TestWritesAfterCleanRestartSurviveNextCrash(t *testing.T) {
	dir := t.TempDir()
	data, _ := testData(80, 60, 8, 4, 0.5)
	di := mustOpenDurable(t, dir)
	if _, err := di.AddBatch(data[:40]); err != nil {
		t.Fatal(err)
	}
	if _, err := di.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	// Clean restart: no replay, empty WAL. Write, then crash.
	di2 := mustOpenDurable(t, dir)
	id, err := di2.Add(data[40])
	if err != nil {
		t.Fatal(err)
	}
	if id != 40 {
		t.Fatalf("id after clean restart = %d, want 40", id)
	}
	if st := di2.WALStats(); st.Depth != 1 || st.LastLSN <= st.CheckpointLSN {
		t.Fatalf("LSN sequence did not continue past the watermark: %+v", st)
	}
	crash(di2)
	di3 := mustOpenDurable(t, dir)
	defer di3.Close()
	if rec := di3.Recovery(); rec.Records != 1 {
		t.Fatalf("replayed %d records, want 1 — post-restart write lost", rec.Records)
	}
	if ids := searchIDs(t, di3, data[40], 1); !ids[40] {
		t.Fatal("write after clean restart lost by the following crash")
	}
}

// TestDurableOperationsAfterClose error cleanly rather than panic.
func TestDurableOperationsAfterClose(t *testing.T) {
	dir := t.TempDir()
	di := mustOpenDurable(t, dir)
	if _, err := di.Add([]float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := di.Add([]float32{3, 4}); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Add after Close: %v, want ErrNotDurable", err)
	}
	if ok, err := di.DeleteDurable(0); err == nil || ok == false && err == nil {
		t.Fatalf("DeleteDurable after Close: %v %v, want error", ok, err)
	}
	if di.Delete(0) {
		t.Fatal("Delete after Close acknowledged")
	}
}

// id collisions across facades would be caught here: the example keeps
// the doc honest.
func ExampleOpenDurable() {
	dir, _ := os.MkdirTemp("", "lccs-durable")
	defer os.RemoveAll(dir)

	// The Config seeds a fresh directory; once a checkpoint exists its
	// container carries the resolved configuration instead.
	cfg := DurableConfig{Config: Config{Metric: Euclidean, M: 8, BucketWidth: 4}}
	di, _ := OpenDurable(dir, cfg)
	id, _ := di.Add([]float32{1, 0})
	di.Add([]float32{0, 1})
	fmt.Println("first id:", id)

	// Crash: no Close, no Checkpoint. Reopen and everything acked is
	// back.
	di2, _ := OpenDurable(dir, cfg)
	fmt.Println("recovered vectors:", di2.Len())
	di2.Close()
	// Output:
	// first id: 0
	// recovered vectors: 2
}

// TestDurableAttrsRoundTrip asserts metadata durability on both halves
// of the recovery path: attrs journaled in the WAL survive a crash, and
// attrs folded into a checkpoint snapshot survive a reopen that replays
// nothing.
func TestDurableAttrsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	di := mustOpenDurable(t, dir)

	vecs := make([][]float32, 12)
	attrs := make([]Attrs, 12)
	for i := range vecs {
		vecs[i] = []float32{float32(i), float32(i) * 2, 1}
		color := "red"
		if i%2 == 1 {
			color = "blue"
		}
		attrs[i] = Attrs{"color": StrAttr(color), "rank": IntAttr(int64(i))}
	}
	attrs[5] = nil // one bare row: journals as a plain insert
	ids, err := di.AddBatchWithAttrs(vecs, attrs)
	if err != nil {
		t.Fatalf("AddBatchWithAttrs: %v", err)
	}
	extraID, err := di.AddWithAttrs([]float32{99, 99, 1}, Attrs{"color": StrAttr("red")})
	if err != nil {
		t.Fatalf("AddWithAttrs: %v", err)
	}

	if _, err := di.AddBatchWithAttrs(vecs, attrs[:3]); !errors.Is(err, ErrAttrsMismatch) {
		t.Fatalf("misaligned attrs: got %v, want ErrAttrsMismatch", err)
	}

	checkAttrs := func(di *DurableIndex, label string) {
		t.Helper()
		for i, id := range ids {
			got := di.Attrs(id)
			if !got.Equal(attrs[i]) {
				t.Fatalf("%s: Attrs(%d) = %v, want %v", label, id, got, attrs[i])
			}
		}
		if got := di.Attrs(extraID); !got.Equal(Attrs{"color": StrAttr("red")}) {
			t.Fatalf("%s: Attrs(extra) = %v", label, got)
		}
		res, err := di.SearchCostInto([]float32{0, 0, 1}, len(vecs)+1, 1<<20, &Filter{Terms: []FilterTerm{EqStr("color", "red")}}, nil, nil, nil)
		if err != nil {
			t.Fatalf("%s: SearchCostInto: %v", label, err)
		}
		for _, nb := range res {
			if got := di.Attrs(nb.ID); got["color"] != StrAttr("red") {
				t.Fatalf("%s: filtered result %d has attrs %v", label, nb.ID, got)
			}
		}
		// 6 reds in the batch (even i, minus the bared i=5 which was odd
		// anyway — evens 0,2,4,6,8,10) plus the extra.
		if len(res) != 7 {
			t.Fatalf("%s: filtered search returned %d results, want 7", label, len(res))
		}
	}
	checkAttrs(di, "before crash")

	// Crash: recovery must rebuild attrs purely from the WAL.
	crash(di)
	di2 := mustOpenDurable(t, dir)
	checkAttrs(di2, "after WAL replay")

	// Checkpoint folds attrs into the snapshot container; a clean close
	// and reopen must restore them without replaying the truncated log.
	if _, err := di2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := di2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	di3 := mustOpenDurable(t, dir)
	defer di3.Close()
	checkAttrs(di3, "after checkpoint reopen")
}
