package server

import (
	"net/http"
	"time"

	"lccs"
	"lccs/internal/engine"
	"lccs/internal/obs"
)

// This file is the server's metering and introspection surface: the
// per-request health recording shared by every handler, the usage
// endpoints (/v1/usage, /v1/collections/{name}/usage), the windowed
// health endpoint (/v1/debug/health), and the EXPLAIN plan builder.

// healthWindows are the two resolutions every windowed report carries:
// the last minute merged from per-second buckets and the last fifteen
// minutes merged from per-minute buckets.
var healthWindows = [2]time.Duration{time.Minute, 15 * time.Minute}

// sloTarget is the availability objective behind the burn-rate
// indicator: 99.9% of requests succeed.
const sloTarget = 0.999

// recordHealth folds one finished request into the server-wide ring
// and, when the request resolved to a collection, that collection's
// ring. c may be nil (registry endpoints, unknown collections).
func (s *Server) recordHealth(c *coll, hs obs.HealthSample) {
	now := time.Now()
	s.health.Record(now, hs)
	if c != nil {
		c.health.Record(now, hs)
	}
}

// walAppended reads the journal's cumulative appended-bytes counter (0
// for memory-only backends). The write handlers take the delta around
// an operation to attribute journal bytes to it; under concurrent
// writers the split between requests is approximate, but the sum — the
// number billing cares about — is exact because the counter itself is
// monotone.
func walAppended(c *coll) int64 {
	if c.dur == nil {
		return 0
	}
	return c.dur.WALStats().AppendedBytes
}

// ---- usage endpoints ----

// usageResponse is the /v1/collections/{name}/usage payload: the
// cumulative counters since process start plus windowed rates at two
// resolutions.
type usageResponse struct {
	Collection string               `json:"collection"`
	Cumulative engine.UsageSnapshot `json:"cumulative"`
	Windows    []obs.HealthWindow   `json:"windows"`
	// WAL reports the journal's cumulative appended bytes and depth for
	// durable collections.
	WAL *lccs.WALStats `json:"wal,omitempty"`
}

// aggregateUsageResponse is the /v1/usage payload: the sum over every
// loaded collection, the server-wide windows, and the per-collection
// breakdown.
type aggregateUsageResponse struct {
	Total       engine.UsageSnapshot            `json:"total"`
	Windows     []obs.HealthWindow              `json:"windows"`
	Collections map[string]engine.UsageSnapshot `json:"collections"`
}

func (s *Server) handleCollUsage(w http.ResponseWriter, r *http.Request) {
	c := s.resolve(w, r, "usage")
	if c == nil {
		return
	}
	resp := usageResponse{
		Collection: c.name,
		Cumulative: c.usage.Snapshot(),
		Windows:    s.windowsOf(c.health),
	}
	if c.dur != nil {
		ws := c.dur.WALStats()
		resp.WAL = &ws
	}
	s.respond(w, c.name, "usage", http.StatusOK, resp)
}

func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	colls := s.loadedColls()
	resp := aggregateUsageResponse{
		Windows:     s.windowsOf(s.health),
		Collections: make(map[string]engine.UsageSnapshot, len(colls)),
	}
	for _, c := range colls {
		snap := c.usage.Snapshot()
		resp.Collections[c.name] = snap
		resp.Total.Add(snap)
	}
	s.respond(w, "", "usage", http.StatusOK, resp)
}

// windowsOf merges a ring at the standard resolutions.
func (s *Server) windowsOf(h *obs.Health) []obs.HealthWindow {
	now := time.Now()
	out := make([]obs.HealthWindow, 0, len(healthWindows))
	for _, span := range healthWindows {
		out = append(out, h.Window(now, span))
	}
	return out
}

// ---- /v1/debug/health ----

// admissionHealth is the controller's live state inside the health
// payload.
type admissionHealth struct {
	InFlight     int    `json:"in_flight"`
	QueueDepth   int64  `json:"queue_depth"`
	Rejected     uint64 `json:"rejected_total"`
	WaitTimeouts uint64 `json:"wait_timeouts_total"`
}

// walHealth is one durable collection's journal lag.
type walHealth struct {
	Collection string `json:"collection"`
	// FsyncLagRecords is LastLSN − SyncedLSN: acknowledged-pending
	// records an "interval"-policy crash window could lose.
	FsyncLagRecords uint64 `json:"fsync_lag_records"`
	// Depth is the records only the log holds (crash replay work).
	Depth         uint64  `json:"depth"`
	LastFsyncUS   float64 `json:"last_fsync_us"`
	AppendedBytes int64   `json:"appended_bytes"`
}

// sloHealth is the burn-rate indicator: how fast the error budget
// (1 − target) is being consumed. A burn rate of 1 means errors arrive
// exactly at the budgeted rate; sustained rates above 1 exhaust it.
type sloHealth struct {
	Target     float64 `json:"target"`
	BurnRate1m float64 `json:"burn_rate_1m"`
	BurnRate15 float64 `json:"burn_rate_15m"`
	// State summarizes: "ok" (both windows under budget), "elevated"
	// (the short window is burning — possibly a blip), "burning" (both
	// windows over budget — the objective is at risk).
	State string `json:"state"`
}

// healthResponse is the /v1/debug/health payload.
type healthResponse struct {
	Status        string             `json:"status"` // "ok" | "draining"
	UptimeSeconds float64            `json:"uptime_seconds"`
	Windows       []obs.HealthWindow `json:"windows"`
	Admission     admissionHealth    `json:"admission"`
	SLO           sloHealth          `json:"slo"`
	WAL           []walHealth        `json:"wal,omitempty"`
	// Collections holds each loaded collection's short window.
	Collections map[string]obs.HealthWindow `json:"collections,omitempty"`
}

func (s *Server) handleDebugHealth(w http.ResponseWriter, r *http.Request) {
	windows := s.windowsOf(s.health)
	resp := healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.met.start).Seconds(),
		Windows:       windows,
		Admission: admissionHealth{
			InFlight:     s.adm.inFlight(),
			QueueDepth:   s.adm.queueDepth(),
			Rejected:     s.adm.rejected.Load(),
			WaitTimeouts: s.adm.timeouts.Load(),
		},
		SLO: sloBurn(windows),
	}
	if s.draining.Load() {
		resp.Status = "draining"
	}
	colls := s.loadedColls()
	resp.Collections = make(map[string]obs.HealthWindow, len(colls))
	now := time.Now()
	for _, c := range colls {
		resp.Collections[c.name] = c.health.Window(now, healthWindows[0])
		if c.dur == nil {
			continue
		}
		ws := c.dur.WALStats()
		resp.WAL = append(resp.WAL, walHealth{
			Collection:      c.name,
			FsyncLagRecords: ws.LastLSN - ws.SyncedLSN,
			Depth:           ws.Depth,
			LastFsyncUS:     ws.LastFsyncMicros,
			AppendedBytes:   ws.AppendedBytes,
		})
	}
	s.respond(w, "", "debug_health", http.StatusOK, resp)
}

// sloBurn derives the burn-rate indicator from the standard windows
// (short first, long second).
func sloBurn(windows []obs.HealthWindow) sloHealth {
	budget := 1 - sloTarget
	h := sloHealth{Target: sloTarget, State: "ok"}
	if len(windows) > 0 {
		h.BurnRate1m = windows[0].ErrorRate / budget
	}
	if len(windows) > 1 {
		h.BurnRate15 = windows[1].ErrorRate / budget
	}
	switch {
	case h.BurnRate1m >= 1 && h.BurnRate15 >= 1:
		h.State = "burning"
	case h.BurnRate1m >= 1 || h.BurnRate15 >= 1:
		h.State = "elevated"
	}
	return h
}

// ---- EXPLAIN ----

// explainShardJSON is one scan unit of the plan: an immutable shard
// (shard ≥ 0) or the dynamic delta buffer.
type explainShardJSON struct {
	Shard       int     `json:"shard"`
	Comparisons int64   `json:"comparisons"`
	Candidates  int64   `json:"candidates"`
	Bytes       int64   `json:"bytes"`
	DurUS       float64 `json:"dur_us"`
	// Plan is how a shard answered: "postings" (an exact gather over
	// the filter's shortest equality posting list) or "csa" (the LCCS
	// candidate stream). PostingLen is that list's length, present when
	// the filter planner consulted one.
	Plan       string `json:"plan,omitempty"`
	PostingLen *int64 `json:"posting_len,omitempty"`
}

// explainJSON is the resolved query plan returned for "explain": true.
// It is assembled from the request's (forced) trace spans and its cost
// record, so building it costs nothing on requests that don't ask.
type explainJSON struct {
	Collection string `json:"collection"`
	// Backend is the facade kind serving the collection (index |
	// sharded | dynamic | durable | custom).
	Backend string `json:"backend"`
	K       int    `json:"k"`
	// Budget is the requested candidate budget λ (0 = backend default).
	Budget int `json:"budget"`
	// Quantize/Rerank echo the collection's compression settings.
	Quantize string `json:"quantize,omitempty"`
	Rerank   int    `json:"rerank,omitempty"`
	Filtered bool   `json:"filtered"`
	// FilterSelectivity is the observed accept fraction among
	// predicate-checked candidates; present only on filtered queries
	// that checked at least one.
	FilterSelectivity *float64 `json:"filter_selectivity,omitempty"`
	// Cache is the result-cache outcome: "hit", "miss", or "off".
	Cache string `json:"cache"`
	// Cost is the whole query's cost record (absent on cache hits —
	// no backend work ran).
	Cost *lccs.Cost `json:"cost,omitempty"`
	// Shards lists every shard visited with its per-shard cost; Buffer
	// is the dynamic delta scan when the backend has one.
	Shards []explainShardJSON `json:"shards"`
	Buffer *explainShardJSON  `json:"buffer,omitempty"`
}

// buildExplain assembles the plan. co is nil on cache hits; tr is the
// request's trace (explain forces one, so it is non-nil here except
// for custom backends that ignored it).
func buildExplain(c *coll, k, budget int, f *lccs.Filter, co *lccs.Cost, cacheOutcome string, tr *obs.Trace) *explainJSON {
	e := &explainJSON{
		Collection: c.name,
		Backend:    backendStats(c).Kind,
		K:          k,
		Budget:     budget,
		Quantize:   c.spec.Quantize,
		Rerank:     c.spec.Rerank,
		Filtered:   f != nil,
		Cache:      cacheOutcome,
		Shards:     []explainShardJSON{},
	}
	if e.Cache == "" {
		e.Cache = "off"
	}
	if co != nil {
		e.Cost = co
		if f != nil {
			if checked := co.Candidates + co.FilterRejected; checked > 0 {
				sel := float64(co.Candidates) / float64(checked)
				e.FilterSelectivity = &sel
			}
		}
	}
	collectExplainScans(e, tr.Tree())
	return e
}

// collectExplainScans walks the span forest for shard_scan and
// buffer_scan nodes.
func collectExplainScans(e *explainJSON, nodes []obs.SpanNode) {
	for i := range nodes {
		n := &nodes[i]
		switch n.Stage {
		case obs.StageShardScan.String():
			sh := explainShardJSON{Shard: -1, Comparisons: n.Rows,
				Candidates: n.Cands, Bytes: n.Bytes, DurUS: n.DurUS,
				Plan: n.Plan, PostingLen: n.Posting}
			if n.Shard != nil {
				sh.Shard = *n.Shard
			}
			if sh.Plan == "" {
				sh.Plan = "csa" // unfiltered scans never consult the planner
			}
			e.Shards = append(e.Shards, sh)
		case obs.StageBufferScan.String():
			e.Buffer = &explainShardJSON{Shard: -1, Comparisons: n.Rows,
				Candidates: n.Cands, Bytes: n.Bytes, DurUS: n.DurUS}
		}
		collectExplainScans(e, n.Children)
	}
}
