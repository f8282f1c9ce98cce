package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lccs"
	"lccs/internal/engine"
	"lccs/internal/server"
)

// The serving stack is internal/server over the lccs facades, configured
// as lccs-serve configures it with its flag defaults, except -m 32 and
// -shards 2 which the workloads fix.
const (
	indexM      = 32
	indexShards = 2
	indexSeed   = 1 // lccs-serve -seed default
	budgetFlag  = 100
)

// indexConfig is the index configuration lccs-serve derives from its
// flags for a metric.
func indexConfig(metric lccs.MetricKind) lccs.Config {
	return lccs.Config{Metric: metric, M: indexM, Probes: 1, Budget: budgetFlag, Seed: indexSeed}
}

// durableConfig mirrors lccs-serve's durable mode: -sync always (its
// default), 50ms sync interval, 64 MiB segments, default rebuild size.
func durableConfig(metric lccs.MetricKind) lccs.DurableConfig {
	return lccs.DurableConfig{Config: indexConfig(metric), Sync: lccs.SyncAlways,
		SyncInterval: 50 * time.Millisecond, SegmentBytes: 64 << 20}
}

// serverConfig is lccs-serve's server.Config at its flag defaults
// (-max-inflight GOMAXPROCS, -max-queue 4x, -timeout 2s, -cache 4096,
// -slow-threshold 250ms). The log is discarded.
func serverConfig(backend lccs.Searcher, eng *engine.Engine) server.Config {
	return server.Config{
		Backend:       backend,
		Engine:        eng,
		Timeout:       2 * time.Second,
		CacheSize:     4096,
		SlowThreshold: 250 * time.Millisecond,
		SlowLogSize:   64,
	}
}

// stack is one running daemon: a server on a loopback listener.
type stack struct {
	srv  *server.Server
	http *http.Server
	base string // "http://127.0.0.1:port"
	done chan error
	eng  *engine.Engine     // write_mix only
	dur  *lccs.DurableIndex // write_mix only
	// backend is the served index, for in-process calibration.
	backend lccs.CostSearcher
}

// listen starts serving srv on a fresh loopback port.
func listen(srv *server.Server) (*http.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() {
		err := hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

// startStatic builds the sharded index over in.base (with the tenant
// attributes when present) and serves it as the default collection, as
// lccs-serve's file mode does.
func startStatic(in *inputs) (*stack, error) {
	var sx *lccs.ShardedIndex
	var err error
	if attrs := in.attrs(); attrs != nil {
		sx, err = lccs.NewShardedIndexWithAttrs(in.base, attrs, indexConfig(in.metric), indexShards)
	} else {
		sx, err = lccs.NewShardedIndex(in.base, indexConfig(in.metric), indexShards)
	}
	if err != nil {
		return nil, err
	}
	srv, err := server.New(serverConfig(sx, nil))
	if err != nil {
		return nil, err
	}
	hs, base, done, err := listen(srv)
	if err != nil {
		return nil, err
	}
	return &stack{srv: srv, http: hs, base: base, done: done, backend: sx}, nil
}

// startDurable recovers the durable directory and serves it as the
// default collection of a rooted engine, as lccs-serve's durable mode
// does.
func startDurable(dir string, metric lccs.MetricKind) (*stack, error) {
	dur, err := lccs.OpenDurable(dir, durableConfig(metric))
	if err != nil {
		return nil, err
	}
	return serveDurable(dur, dir, metric)
}

// serveDurable serves an open durable index from its directory dir; the
// stack owns it from then on, on failure too.
func serveDurable(dur *lccs.DurableIndex, dir string, metric lccs.MetricKind) (*stack, error) {
	eng, err := engine.New(dir, engine.Spec{Metric: string(metric), M: indexM, Probes: 1,
		Budget: budgetFlag, Seed: indexSeed, Sync: "always", SyncIntervalMS: 50,
		SegmentBytes: 64 << 20}, nil)
	if err != nil {
		dur.Close()
		return nil, err
	}
	srv, err := server.New(serverConfig(dur, eng))
	if err != nil {
		eng.Close()
		dur.Close()
		return nil, err
	}
	hs, base, done, err := listen(srv)
	if err != nil {
		eng.Close()
		dur.Close()
		return nil, err
	}
	return &stack{srv: srv, http: hs, base: base, done: done, eng: eng, dur: dur, backend: dur}, nil
}

// stopHTTP shuts the listener down and waits for the serve loop.
func (s *stack) stopHTTP() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// close stops serving and closes the engine and the durable index
// without checkpointing (a checkpoint would hide the WAL from the next
// recovery).
func (s *stack) close() error {
	err := s.stopHTTP()
	if s.eng != nil {
		err = errors.Join(err, s.eng.Close())
	}
	if s.dur != nil {
		err = errors.Join(err, s.dur.Close())
	}
	return err
}

// prepareDurable writes a durable directory holding a checkpointed
// snapshot of base (ids 0..len-1, with attrs when set) followed by the
// WAL tail, and closes it. It returns the ids the tail inserts got.
func prepareDurable(dir string, metric lccs.MetricKind, base [][]float32, attrs []lccs.Attrs, tail []writeOp) ([]int, error) {
	dur, err := lccs.OpenDurable(dir, durableConfig(metric))
	if err != nil {
		return nil, err
	}
	const chunk = 4096
	for lo := 0; lo < len(base); lo += chunk {
		hi := min(lo+chunk, len(base))
		var ids []int
		if attrs != nil {
			ids, err = dur.AddBatchWithAttrs(base[lo:hi], attrs[lo:hi])
		} else {
			ids, err = dur.AddBatch(base[lo:hi])
		}
		if err != nil {
			dur.Close()
			return nil, err
		}
		if ids[0] != lo || ids[len(ids)-1] != hi-1 {
			dur.Close()
			return nil, fmt.Errorf("prepare: rows %d..%d got ids %d..%d", lo, hi-1, ids[0], ids[len(ids)-1])
		}
	}
	// Background builds race the ingest; one explicit rebuild gives the
	// snapshot the same single-shard layout on every run.
	if err := dur.Rebuild(); err != nil {
		dur.Close()
		return nil, err
	}
	if _, err := dur.Checkpoint(); err != nil {
		dur.Close()
		return nil, err
	}
	var tailIDs []int
	for _, op := range tail {
		if op.del {
			_, err = dur.DeleteDurable(op.id)
		} else {
			var id int
			id, err = dur.AddWithAttrs(op.vec, op.attrs)
			tailIDs = append(tailIDs, id)
		}
		if err != nil {
			dur.Close()
			return nil, err
		}
	}
	return tailIDs, dur.Close()
}

// copyDir copies the regular files of a directory tree.
func copyDir(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// post sends a JSON body and returns the status and the response body.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	return resp.StatusCode, err
}
