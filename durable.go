package lccs

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"lccs/internal/dataset"
	"lccs/internal/faultfs"
	"lccs/internal/obs"
	"lccs/internal/vec"
	"lccs/internal/wal"
)

// ErrNotDurable is returned (wrapped) by DurableIndex write paths when
// the write-ahead log could not make the write durable. The in-memory
// index may already hold the write, but a crash could lose it, so
// callers must not acknowledge it; the log is broken until the index is
// reopened.
var ErrNotDurable = errors.New("lccs: write not durable: write-ahead log failure")

// SyncPolicy selects what an acknowledged DurableIndex write
// guarantees; it mirrors the policies of the underlying write-ahead
// log.
type SyncPolicy int

// The three sync policies, from strongest guarantee to fastest ack.
const (
	// SyncAlways fsyncs before acknowledging: an acked write survives
	// OS and power failure. Concurrent writers share fsyncs (group
	// commit), so throughput scales far better than one fsync per write.
	SyncAlways SyncPolicy = iota
	// SyncInterval acks once the write reached the OS (it survives a
	// process kill) and fsyncs on a timer: at most one interval of
	// acked writes can be lost to an OS crash or power failure.
	SyncInterval
	// SyncNone acks once the write reached the OS and never fsyncs:
	// acked writes survive a process kill, but an OS crash or power
	// failure can lose everything the OS had not yet flushed on its
	// own. Use only where the ingest stream can be replayed from
	// elsewhere.
	SyncNone
)

// ParseSyncPolicy resolves a CLI-style sync-policy name
// (always|interval|none).
func ParseSyncPolicy(name string) (SyncPolicy, error) {
	p, err := wal.ParsePolicy(name)
	if err != nil {
		return 0, fmt.Errorf("lccs: %w", err)
	}
	return SyncPolicy(p), nil
}

// String returns the CLI-facing policy name.
func (p SyncPolicy) String() string { return wal.SyncPolicy(p).String() }

// DurableConfig configures OpenDurable.
type DurableConfig struct {
	// Config is the index configuration used when the data directory is
	// fresh (no snapshot yet). An existing snapshot's container carries
	// its own resolved configuration, which wins.
	Config Config
	// Sync selects the durability guarantee of acknowledged writes. The
	// zero value is SyncAlways.
	Sync SyncPolicy
	// SyncInterval is the fsync period under SyncInterval. 0 selects
	// 50ms.
	SyncInterval time.Duration
	// SegmentBytes rotates WAL segments at this size. 0 selects 64 MiB.
	SegmentBytes int64
	// RebuildAt is the DynamicIndex delta threshold. 0 selects the
	// default.
	RebuildAt int
	// FS is the filesystem the manifest, WAL, and snapshot lifecycle go
	// through. Nil selects the real filesystem; tests inject faults
	// (torn writes, failed fsyncs, crashes) through it. Snapshot file
	// contents are still written by the dataset/container savers on the
	// real filesystem — FS coverage of a snapshot starts at its fsync —
	// so a DurableConfig FS must wrap the real filesystem, not replace
	// it.
	FS wal.FS
	// Logger receives structured recovery, checkpoint, and WAL
	// lifecycle events. Nil keeps the library silent (events are
	// discarded), so embedding processes opt in explicitly.
	Logger *slog.Logger
}

// RecoveryInfo summarizes what OpenDurable replayed.
type RecoveryInfo struct {
	// Segments is how many WAL segment files were read; Records how
	// many records were applied; Skipped how many were already captured
	// by the snapshot.
	Segments int
	Records  uint64
	Skipped  uint64
	// TornBytes is how many bytes of torn WAL tail (a write in flight
	// at the crash) were discarded.
	TornBytes int64
	// Duration is the wall-clock recovery time (snapshot load excluded,
	// replay included).
	Duration time.Duration
	// CheckpointLSN is the manifest watermark recovery started from;
	// LastLSN the highest LSN replayed (0 when the log was empty).
	CheckpointLSN, LastLSN uint64
	// SnapshotVectors is how many vectors the snapshot container
	// restored before replay.
	SnapshotVectors int
}

// CheckpointInfo summarizes one checkpoint.
type CheckpointInfo struct {
	// LSN is the watermark the snapshot captured: the log was truncated
	// through it.
	LSN uint64
	// Generation is the new snapshot generation.
	Generation uint64
	// Live and Tombstones describe the persisted snapshot.
	Live, Tombstones int
	// Container and Dataset are the written files (relative to the data
	// directory).
	Container, Dataset string
	// Skipped reports that the index was empty and nothing was written;
	// recovery replays the (intact) log instead.
	Skipped bool
	// Took is the wall-clock checkpoint duration.
	Took time.Duration
}

// WALStats is a point-in-time summary of the write-ahead log, surfaced
// through /v1/stats and /metrics by the serving layer.
type WALStats struct {
	Policy string `json:"policy"`
	// Depth is the number of records only the log holds (appended since
	// the last checkpoint) — replay work a crash would incur.
	Depth   uint64 `json:"depth"`
	LastLSN uint64 `json:"last_lsn"`
	// SyncedLSN is the highest LSN known fsynced.
	SyncedLSN     uint64 `json:"synced_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// Segments and Bytes describe the live segment files.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// AppendedBytes is the cumulative log bytes accepted since open —
	// monotone across checkpoint truncation, the write-traffic meter.
	AppendedBytes int64 `json:"appended_bytes"`
	// Fsyncs counts fsync calls; the latency fields describe them.
	Fsyncs          uint64  `json:"fsyncs"`
	LastFsyncMicros float64 `json:"last_fsync_us"`
	MeanFsyncMicros float64 `json:"mean_fsync_us"`
}

// DurableIndex is a DynamicIndex whose inserts and deletes are recorded
// in a write-ahead log before they are acknowledged, and whose state is
// periodically checkpointed into a snapshot container — so a crash
// (SIGKILL, OOM, power loss within the sync policy's guarantee) loses
// no acknowledged write. It owns a data directory:
//
//	<dir>/MANIFEST            durable root: active snapshot + WAL watermark
//	<dir>/snapshot-N.lccs     index container (LCCSPKG2/3) of generation N
//	<dir>/snapshot-N.ds       the snapshot's vectors
//	<dir>/wal/*.wal           log segments holding writes since the snapshot
//
// OpenDurable recovers: it loads the manifest's snapshot and replays
// the log records above the manifest watermark, reproducing exactly the
// acknowledged state — inserted ids searchable, deleted ids dead, and
// the id watermark monotone across any number of crash cycles.
// Checkpoint persists a new snapshot and truncates the log; Close
// flushes and closes the log (checkpoint first for a fast next boot).
//
// All Searcher methods are served by the embedded DynamicIndex; Add,
// AddBatch, and Delete journal before acknowledging. A DurableIndex is
// safe for concurrent use. The data directory must have a single owner:
// running two processes over one directory corrupts it.
type DurableIndex struct {
	*DynamicIndex
	dir string
	fs  wal.FS
	log *wal.Log
	// wmu orders id allocation against WAL appends, so replaying the
	// log in LSN order reassigns exactly the original ids. It is held
	// across apply+append but released before the durability wait, so
	// concurrent writers group-commit.
	wmu sync.Mutex
	// cmu serializes checkpoints.
	cmu      sync.Mutex
	gen      uint64
	recovery RecoveryInfo
	logger   *slog.Logger
}

// Compile-time conformance: a DurableIndex serves queries like any
// other facade.
var _ Searcher = (*DurableIndex)(nil)

const walSubdir = "wal"

func snapshotNames(gen uint64) (container, ds string) {
	return fmt.Sprintf("snapshot-%06d.lccs", gen), fmt.Sprintf("snapshot-%06d.ds", gen)
}

// OpenDurable opens (creating if needed) a durable index over a data
// directory, recovering any state a previous process left: the
// manifest's snapshot is loaded and the write-ahead log above the
// checkpoint watermark is replayed. See DurableIndex for the directory
// layout and guarantees.
func OpenDurable(dir string, dc DurableConfig) (*DurableIndex, error) {
	fsys := dc.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	logger := dc.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := wal.ReadManifestFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	var dyn *DynamicIndex
	var snapVectors int
	if man != nil && man.Container != "" {
		ds, err := dataset.Load(filepath.Join(dir, man.Dataset))
		if err != nil {
			return nil, fmt.Errorf("lccs: durable open: load snapshot vectors: %w", err)
		}
		// The whole warm-restart path is flat: the dataset loads into one
		// contiguous block, the container decodes against views of it,
		// and the dynamic index adopts the same store — no per-row
		// materialization or re-packing copies anywhere.
		flat, err := ds.FlatData()
		if err != nil {
			return nil, fmt.Errorf("lccs: durable open: load snapshot vectors: %w", err)
		}
		sx, err := LoadShardedStore(filepath.Join(dir, man.Container), flat)
		if err != nil {
			return nil, fmt.Errorf("lccs: durable open: load snapshot container: %w", err)
		}
		dyn, err = NewDynamicIndexFromShardedStore(sx, dc.RebuildAt)
		if err != nil {
			return nil, err
		}
		snapVectors = flat.Len()
	} else {
		dyn, err = NewDynamicIndex(nil, dc.Config, dc.RebuildAt)
		if err != nil {
			return nil, err
		}
		if man != nil && man.IDWatermark > 0 {
			// The last checkpoint captured an emptied-out index: no
			// vectors to load, but the id watermark must survive so
			// deleted ids are never reissued.
			if err := dyn.restoreWatermark(int(man.IDWatermark)); err != nil {
				return nil, err
			}
		}
	}
	var from uint64
	var gen uint64
	if man != nil {
		from = man.LSN
		gen = man.Generation
	}
	log, err := wal.Open(filepath.Join(dir, walSubdir), wal.Options{
		Policy:       wal.SyncPolicy(dc.Sync),
		Interval:     dc.SyncInterval,
		SegmentBytes: dc.SegmentBytes,
		// Keep the LSN sequence above the checkpoint watermark even
		// when every segment was truncated, so post-checkpoint writes
		// are never mistaken for already-checkpointed ones.
		MinNextLSN: from,
		FS:         fsys,
		Logger:     logger,
	})
	if err != nil {
		return nil, err
	}
	di := &DurableIndex{DynamicIndex: dyn, dir: dir, fs: fsys, log: log, gen: gen, logger: logger}
	start := time.Now()
	info, err := log.Replay(from, func(rec wal.Record) error {
		switch rec.Op {
		case wal.OpInsert, wal.OpInsertAttrs:
			var attrs vec.Attrs
			if rec.Op == wal.OpInsertAttrs {
				a, used, derr := vec.DecodeAttrs(rec.Attrs)
				if derr != nil || used != len(rec.Attrs) {
					return fmt.Errorf("lccs: durable open: replay insert LSN %d: corrupt attribute blob", rec.LSN)
				}
				attrs = a
			}
			// Rows already journaled are applied as they were acknowledged:
			// the finiteness check guards new writes, and a log written
			// before it existed must still recover.
			id, aerr := dyn.add(rec.Vec, attrs)
			if aerr != nil && isValidationError(aerr) {
				// The vector was rejected: the log disagrees with the
				// snapshot it claims to extend.
				return fmt.Errorf("lccs: durable open: replay insert LSN %d: %w", rec.LSN, aerr)
			}
			if int64(id) != rec.ID {
				return fmt.Errorf("lccs: durable open: replay assigned id %d to record claiming %d (LSN %d)", id, rec.ID, rec.LSN)
			}
		case wal.OpDelete:
			dyn.Delete(int(rec.ID))
		default:
			return fmt.Errorf("lccs: durable open: unknown WAL op %d at LSN %d", rec.Op, rec.LSN)
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	log.SetCheckpointLSN(from)
	// A crash between manifest write and log truncation leaves fully
	// checkpointed segments behind; finish the truncation now. Likewise
	// remove snapshot files a crashed checkpoint orphaned.
	if err := log.TruncateThrough(from); err != nil {
		log.Close()
		return nil, err
	}
	if err := di.removeOrphans(man); err != nil {
		log.Close()
		return nil, err
	}
	replayTook := time.Since(start)
	obs.ObserveDur(obs.StageRecoveryReplay, replayTook)
	di.recovery = RecoveryInfo{
		Segments:        info.Segments,
		Records:         info.Records,
		Skipped:         info.Skipped,
		TornBytes:       info.TornBytes,
		Duration:        replayTook,
		CheckpointLSN:   from,
		LastLSN:         info.LastLSN,
		SnapshotVectors: snapVectors,
	}
	logger.Info("durable: recovered",
		"dir", dir,
		"snapshot_vectors", snapVectors,
		"segments", info.Segments,
		"records", info.Records,
		"skipped", info.Skipped,
		"torn_bytes", info.TornBytes,
		"checkpoint_lsn", from,
		"last_lsn", info.LastLSN,
		"took", replayTook)
	return di, nil
}

// removeOrphans deletes snapshot files not referenced by the manifest —
// debris of a checkpoint that crashed between writing its files and
// committing the manifest — plus any manifest temp file.
func (di *DurableIndex) removeOrphans(man *wal.Manifest) error {
	entries, err := di.fs.ReadDir(di.dir)
	if err != nil {
		return err
	}
	keep := map[string]bool{}
	if man != nil {
		keep[man.Container] = true
		keep[man.Dataset] = true
	}
	for _, e := range entries {
		name := e.Name()
		orphan := name == wal.ManifestName+".tmp"
		if ok, _ := filepath.Match("snapshot-*", name); ok && !keep[name] {
			orphan = true
		}
		if orphan {
			if err := di.fs.Remove(filepath.Join(di.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// isValidationError reports whether a DynamicIndex.Add error means the
// vector was rejected (as opposed to a deferred background-build
// failure delivered alongside a successful insert).
func isValidationError(err error) bool {
	return errors.Is(err, ErrEmptyVector) || errors.Is(err, ErrDimensionMismatch) || errors.Is(err, ErrNonFiniteVector)
}

// Add inserts a vector and blocks until the insert is durable under
// the configured sync policy; only then is the id safe to acknowledge.
// As with DynamicIndex.Add, a non-nil error alongside a valid id can be
// a deferred background-build failure (the insert itself succeeded); an
// error wrapping ErrNotDurable, however, means the write may not
// survive a crash and must not be acknowledged.
func (di *DurableIndex) Add(v []float32) (int, error) {
	return di.AddWithAttrs(v, nil)
}

// AddWithAttrs is Add with per-vector metadata: the attribute row is
// journaled alongside the vector (an OpInsertAttrs record), so filtered
// search state survives crash recovery exactly like the vectors do.
func (di *DurableIndex) AddWithAttrs(v []float32, a Attrs) (int, error) {
	// The stage clock: apply covers the write-lock wait plus the
	// in-memory insert; append the journal record write; fsync the
	// group-commit durability wait.
	t0 := time.Now()
	di.wmu.Lock()
	id, aerr := di.DynamicIndex.AddWithAttrs(v, a)
	if aerr != nil && isValidationError(aerr) {
		di.wmu.Unlock()
		return id, aerr
	}
	t1 := time.Now()
	obs.ObserveDur(obs.StageIndexApply, t1.Sub(t0))
	lsn, werr := di.log.Append(insertRecord(id, v, a))
	di.wmu.Unlock()
	t2 := time.Now()
	obs.ObserveDur(obs.StageWALAppend, t2.Sub(t1))
	if werr == nil {
		werr = di.log.WaitDurable(lsn)
		obs.ObserveSince(obs.StageWALFsync, t2)
	}
	if werr != nil {
		return id, fmt.Errorf("%w: %v", ErrNotDurable, werr)
	}
	return id, aerr
}

// insertRecord builds the journal record for one insert: a plain
// OpInsert when the row carries no metadata, an OpInsertAttrs framing
// the canonical attribute encoding otherwise.
func insertRecord(id int, v []float32, a Attrs) wal.Record {
	if len(a) == 0 {
		return wal.Record{Op: wal.OpInsert, ID: int64(id), Vec: v}
	}
	return wal.Record{Op: wal.OpInsertAttrs, ID: int64(id), Vec: v, Attrs: vec.AppendAttrs(nil, a)}
}

// AddBatch inserts many vectors with one journal append and one
// durability wait, so a bulk ingest pays one (group-committed) fsync
// per batch instead of one per vector. On a validation error the valid
// prefix is inserted, journaled, and returned alongside the error.
func (di *DurableIndex) AddBatch(vecs [][]float32) ([]int, error) {
	return di.AddBatchWithAttrs(vecs, nil)
}

// AddBatchWithAttrs is AddBatch with per-vector metadata: attrs[i]
// belongs to vecs[i]. attrs may be nil (no metadata) or must match
// vecs in length; rows whose attrs are empty journal as plain inserts.
func (di *DurableIndex) AddBatchWithAttrs(vecs [][]float32, attrs []Attrs) ([]int, error) {
	if len(vecs) == 0 {
		return nil, nil
	}
	if attrs != nil && len(attrs) != len(vecs) {
		return nil, ErrAttrsMismatch
	}
	ids := make([]int, 0, len(vecs))
	recs := make([]wal.Record, 0, len(vecs))
	var deferred, rejected error
	t0 := time.Now()
	di.wmu.Lock()
	for i, v := range vecs {
		var a Attrs
		if attrs != nil {
			a = attrs[i]
		}
		id, aerr := di.DynamicIndex.AddWithAttrs(v, a)
		if aerr != nil && isValidationError(aerr) {
			rejected = fmt.Errorf("vector %d: %w", len(ids), aerr)
			break
		}
		if aerr != nil {
			deferred = aerr
		}
		ids = append(ids, id)
		recs = append(recs, insertRecord(id, v, a))
	}
	t1 := time.Now()
	obs.ObserveDur(obs.StageIndexApply, t1.Sub(t0))
	var lsn uint64
	var werr error
	if len(recs) > 0 {
		lsn, werr = di.log.Append(recs...)
	}
	di.wmu.Unlock()
	t2 := time.Now()
	obs.ObserveDur(obs.StageWALAppend, t2.Sub(t1))
	if len(recs) > 0 && werr == nil {
		werr = di.log.WaitDurable(lsn)
		obs.ObserveSince(obs.StageWALFsync, t2)
	}
	switch {
	case werr != nil:
		return ids, fmt.Errorf("%w: %v", ErrNotDurable, werr)
	case rejected != nil:
		return ids, rejected
	}
	return ids, deferred
}

// DeleteDurable tombstones id and blocks until the delete is durable
// under the configured sync policy. It reports whether the id was live;
// an error wrapping ErrNotDurable means the delete may not survive a
// crash and must not be acknowledged.
func (di *DurableIndex) DeleteDurable(id int) (bool, error) {
	t0 := time.Now()
	di.wmu.Lock()
	ok := di.DynamicIndex.Delete(id)
	if !ok {
		di.wmu.Unlock()
		return false, nil
	}
	t1 := time.Now()
	obs.ObserveDur(obs.StageIndexApply, t1.Sub(t0))
	lsn, werr := di.log.Append(wal.Record{Op: wal.OpDelete, ID: int64(id)})
	di.wmu.Unlock()
	t2 := time.Now()
	obs.ObserveDur(obs.StageWALAppend, t2.Sub(t1))
	if werr == nil {
		werr = di.log.WaitDurable(lsn)
		obs.ObserveSince(obs.StageWALFsync, t2)
	}
	if werr != nil {
		return true, fmt.Errorf("%w: %v", ErrNotDurable, werr)
	}
	return true, nil
}

// Delete is DeleteDurable for callers bound to the DynamicIndex
// signature; a journal failure is reported as not-live so it is never
// silently acknowledged. Prefer DeleteDurable where the error matters.
func (di *DurableIndex) Delete(id int) bool {
	ok, err := di.DeleteDurable(id)
	return ok && err == nil
}

// DeleteBatch tombstones many ids with one journal append and one
// durability wait — the delete-side mirror of AddBatch, so a bulk
// delete pays one (group-committed) fsync instead of one per id. It
// returns how many ids were live (now tombstoned, durably) and which
// were unknown or already deleted; an error wrapping ErrNotDurable
// means the tombstones may not survive a crash and must not be
// acknowledged.
func (di *DurableIndex) DeleteBatch(ids []int) (deleted int, missing []int, err error) {
	if len(ids) == 0 {
		return 0, nil, nil
	}
	recs := make([]wal.Record, 0, len(ids))
	t0 := time.Now()
	di.wmu.Lock()
	for _, id := range ids {
		if di.DynamicIndex.Delete(id) {
			recs = append(recs, wal.Record{Op: wal.OpDelete, ID: int64(id)})
		} else {
			missing = append(missing, id)
		}
	}
	t1 := time.Now()
	obs.ObserveDur(obs.StageIndexApply, t1.Sub(t0))
	var lsn uint64
	var werr error
	if len(recs) > 0 {
		lsn, werr = di.log.Append(recs...)
	}
	di.wmu.Unlock()
	t2 := time.Now()
	obs.ObserveDur(obs.StageWALAppend, t2.Sub(t1))
	if len(recs) > 0 && werr == nil {
		werr = di.log.WaitDurable(lsn)
		obs.ObserveSince(obs.StageWALFsync, t2)
	}
	if werr != nil {
		return len(recs), missing, fmt.Errorf("%w: %v", ErrNotDurable, werr)
	}
	return len(recs), missing, nil
}

// Checkpoint persists the current state as a new snapshot generation,
// commits the manifest, and truncates the write-ahead log through the
// captured watermark — bounding both recovery replay time and the data
// directory's size. Writers are blocked only while the in-memory
// snapshot is taken (the buffer shard build), not during file writes.
//
// An index with no live vectors checkpoints too: the manifest records
// the id watermark instead of naming a container, so even a fully
// emptied index truncates its log and never reissues a deleted id. The
// checkpoint is skipped only when the log holds nothing past the
// previous one (there is nothing new to capture).
func (di *DurableIndex) Checkpoint() (CheckpointInfo, error) {
	di.cmu.Lock()
	defer di.cmu.Unlock()
	start := time.Now()
	di.wmu.Lock()
	lsn := di.log.LastLSN()
	empty := di.DynamicIndex.Len() == 0
	var watermark int
	var frozen *vec.Store
	var sx *ShardedIndex
	var err error
	if empty {
		watermark = di.DynamicIndex.idWatermark()
	} else {
		frozen, sx, err = di.DynamicIndex.snapshotStore()
	}
	depth := di.log.Stats().Depth
	di.wmu.Unlock()
	snapTook := time.Since(start)
	obs.ObserveDur(obs.StageCkptSnapshot, snapTook)
	if err != nil {
		return CheckpointInfo{}, err
	}
	if empty && depth == 0 {
		// Nothing new since the last checkpoint captured this (empty)
		// state — including the fresh-directory case.
		return CheckpointInfo{Skipped: true, Took: time.Since(start)}, nil
	}
	// Claim the generation before any file is written. A checkpoint
	// that fails partway (even after its manifest committed — say the
	// directory fsync or the log truncation errored) leaves di.gen
	// advanced, so the next attempt picks a fresh generation and never
	// overwrites snapshot files a committed manifest may still
	// reference. Claiming only after a fully successful commit — as
	// this code once did — let the next checkpoint reuse the
	// generation the live manifest pointed at and clobber its files:
	// the directory then looked checkpointed but could never recover.
	di.gen++
	gen := di.gen
	man := &wal.Manifest{LSN: lsn, Generation: gen}
	info := CheckpointInfo{LSN: lsn, Generation: gen}
	writeStart := time.Now()
	if empty {
		man.IDWatermark = uint64(watermark)
	} else {
		container, dsName := snapshotNames(gen)
		if err := sx.Save(filepath.Join(di.dir, container)); err != nil {
			return CheckpointInfo{}, err
		}
		// Persist the frozen store as a flat-backed dataset: the vector
		// block writes out in one pass, no per-row materialization.
		out := dataset.NewFlat("durable", "snapshot", frozen, nil)
		if err := out.Save(filepath.Join(di.dir, dsName)); err != nil {
			return CheckpointInfo{}, err
		}
		// The snapshot files must be on disk before the manifest names
		// them.
		for _, name := range []string{container, dsName} {
			if err := fsyncFile(di.fs, filepath.Join(di.dir, name)); err != nil {
				return CheckpointInfo{}, err
			}
		}
		man.Container, man.Dataset = container, dsName
		info.Container, info.Dataset = container, dsName
		info.Live, info.Tombstones = sx.Len(), sx.Deleted()
	}
	writeTook := time.Since(writeStart)
	obs.ObserveDur(obs.StageCkptWrite, writeTook)
	manStart := time.Now()
	if err := wal.WriteManifestFS(di.fs, di.dir, man); err != nil {
		return CheckpointInfo{}, err
	}
	manTook := time.Since(manStart)
	obs.ObserveDur(obs.StageCkptManifest, manTook)
	truncStart := time.Now()
	if err := di.log.TruncateThrough(lsn); err != nil {
		return CheckpointInfo{}, err
	}
	// Sweep everything the committed manifest does not reference: the
	// previous generation's files plus any debris a failed earlier
	// checkpoint left behind. OpenDurable runs the same sweep, so a
	// crash anywhere in here is finished by the next recovery.
	if err := di.removeOrphans(man); err != nil {
		return CheckpointInfo{}, err
	}
	truncTook := time.Since(truncStart)
	obs.ObserveDur(obs.StageCkptTruncate, truncTook)
	info.Took = time.Since(start)
	di.logger.Info("durable: checkpoint",
		"generation", gen,
		"lsn", lsn,
		"live", info.Live,
		"tombstones", info.Tombstones,
		"snapshot_took", snapTook,
		"write_took", writeTook,
		"manifest_took", manTook,
		"truncate_took", truncTook,
		"took", info.Took)
	return info, nil
}

// Close waits for any background build and closes the write-ahead log
// (flushing and fsyncing it). It does not checkpoint: the log replays
// on the next OpenDurable. Call Checkpoint first for a fast next boot.
func (di *DurableIndex) Close() error {
	di.WaitRebuild()
	return di.log.Close()
}

// Recovery returns what OpenDurable replayed.
func (di *DurableIndex) Recovery() RecoveryInfo { return di.recovery }

// Dir returns the data directory the index owns.
func (di *DurableIndex) Dir() string { return di.dir }

// WALStats returns a point-in-time summary of the write-ahead log.
func (di *DurableIndex) WALStats() WALStats {
	st := di.log.Stats()
	return WALStats{
		Policy:          st.Policy,
		Depth:           st.Depth,
		LastLSN:         st.LastLSN,
		SyncedLSN:       st.SyncedLSN,
		CheckpointLSN:   st.CheckpointLSN,
		Segments:        st.Segments,
		Bytes:           st.Bytes,
		AppendedBytes:   st.AppendedBytes,
		Fsyncs:          st.Fsyncs,
		LastFsyncMicros: float64(st.LastFsync.Nanoseconds()) / 1e3,
		MeanFsyncMicros: float64(st.MeanFsync.Nanoseconds()) / 1e3,
	}
}

// fsyncFile fsyncs an already written file by path.
func fsyncFile(fsys wal.FS, path string) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
