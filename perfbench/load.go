package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
)

// record is one request as the client saw it.
type record struct {
	kind opKind
	// seq is the query index (searches) or the write index (writes).
	seq int
	// start and end are offsets from the start of the load.
	start, end time.Duration
	// status is the HTTP status, 0 when the request failed in transport.
	status int
	// bad says why a 200 response could not be used ("" when it could).
	bad string
	// ids and dists are a search's answer; an insert's assigned id is
	// ids[0]; a delete's reported live count is ids[0].
	ids   []int32
	dists []float64
}

func (r *record) latency() time.Duration { return r.end - r.start }

// client is one closed-loop connection: it sends its next request only
// after the previous one completed, over one keep-alive connection.
type client struct {
	http *http.Client
	body []byte
	resp bytes.Buffer
}

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// appendVector appends a JSON array of float32 values.
func appendVector(b []byte, v []float32) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(x), 'g', -1, 32)
	}
	return append(b, ']')
}

// searchBody encodes a /v1/search request.
func searchBody(b []byte, q []float32, tenant int64, lambda int) []byte {
	b = append(b[:0], `{"query":`...)
	b = appendVector(b, q)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, k, 10)
	b = append(b, `,"budget":`...)
	b = strconv.AppendInt(b, int64(lambda), 10)
	if tenant >= 0 {
		b = append(b, `,"filter":[{"key":"tenant","value":`...)
		b = strconv.AppendInt(b, tenant, 10)
		b = append(b, `}]`...)
	}
	return append(b, '}')
}

type searchReply struct {
	Neighbors []struct {
		ID   int32   `json:"id"`
		Dist float64 `json:"dist"`
	} `json:"neighbors"`
}

// search sends one search and fills r (except its timing).
func (c *client) search(base string, q []float32, tenant int64, lambda int, r *record) {
	c.body = searchBody(c.body, q, tenant, lambda)
	r.kind = opSearch
	status, err := post(c.http, base+"/v1/search", c.body, &c.resp)
	if err != nil {
		r.bad = err.Error()
	}
	r.status = status
	if status != http.StatusOK || err != nil {
		return
	}
	var rep searchReply
	if err := json.Unmarshal(c.resp.Bytes(), &rep); err != nil {
		r.bad = "decode: " + err.Error()
		return
	}
	r.ids = make([]int32, len(rep.Neighbors))
	r.dists = make([]float64, len(rep.Neighbors))
	for i, nb := range rep.Neighbors {
		r.ids[i], r.dists[i] = nb.ID, nb.Dist
	}
}

// write sends one insert or delete and fills r (except its timing).
func (c *client) write(base string, op writeOp, r *record) {
	var url string
	if op.del {
		r.kind, url = opDelete, base+"/v1/delete"
		c.body = strconv.AppendInt(append(c.body[:0], `{"id":`...), int64(op.id), 10)
		c.body = append(c.body, '}')
	} else {
		r.kind, url = opInsert, base+"/v1/insert"
		c.body = appendVector(append(c.body[:0], `{"vectors":[`...), op.vec)
		c.body = append(c.body, "]}"...)
	}
	status, err := post(c.http, url, c.body, &c.resp)
	if err != nil {
		r.bad = err.Error()
	}
	r.status = status
	if status != http.StatusOK || err != nil {
		return
	}
	var rep struct {
		IDs     []int32 `json:"ids"`
		Deleted *int32  `json:"deleted"`
	}
	if err := json.Unmarshal(c.resp.Bytes(), &rep); err != nil {
		r.bad = "decode: " + err.Error()
		return
	}
	switch {
	case op.del && rep.Deleted != nil:
		r.ids = []int32{*rep.Deleted}
	case op.del:
		r.bad = "delete reply carries no deleted count"
	case len(rep.IDs) == 1:
		r.ids = rep.IDs
	default:
		r.bad = fmt.Sprintf("insert reply carries %d ids, want 1", len(rep.IDs))
	}
}

// loadPlan describes one closed-loop load.
type loadPlan struct {
	base      string
	in        *inputs
	lambda    int
	searchers int  // connections sending searches, sharing one query stream
	writer    bool // one more connection sending in.writes in order
	// acked, when set, is called by the writer after every acknowledged
	// write with the running count.
	acked func(n int)
}

// runLoad drives the plan for d and returns every request made, in no
// particular order, and the time until the last one completed. Each
// connection stops sending at the deadline; the writer also stops when
// its stream runs out.
func runLoad(p loadPlan, d time.Duration) ([]record, time.Duration) {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		records []record
	)
	t0 := time.Now()
	deadline := t0.Add(d)
	collect := func(rs []record) {
		mu.Lock()
		records = append(records, rs...)
		mu.Unlock()
	}
	for i := 0; i < p.searchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			var rs []record
			for time.Now().Before(deadline) {
				seq := int(next.Add(1) - 1)
				q, t := p.in.query(seq)
				r := record{seq: seq, start: time.Since(t0)}
				c.search(p.base, q, t, p.lambda, &r)
				r.end = time.Since(t0)
				rs = append(rs, r)
			}
			collect(rs)
		}()
	}
	if p.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			var rs []record
			acked := 0
			for seq := 0; seq < len(p.in.writes) && time.Now().Before(deadline); seq++ {
				r := record{seq: seq, start: time.Since(t0)}
				c.write(p.base, p.in.writes[seq], &r)
				r.end = time.Since(t0)
				rs = append(rs, r)
				if r.status == http.StatusOK && r.bad == "" {
					acked++
					if p.acked != nil {
						p.acked(acked)
					}
				}
			}
			collect(rs)
		}()
	}
	wg.Wait()
	return records, time.Since(t0)
}
