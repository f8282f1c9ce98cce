package main

import (
	"fmt"

	"lccs"
	"lccs/internal/dataset"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// Everything the system under test receives is generated here, from
// the run's seed and the fixed dataSeed; the same seed yields
// byte-identical inputs.

const (
	// k is the result size of every search.
	k = 10
	// recallTarget is the recall@k the calibrated budget must reach.
	recallTarget = 0.90
	// recallSample is the number of served queries whose answers are
	// scored against exact brute force.
	recallSample = 1000
	// tenants is the number of distinct tenant values on search_filtered
	// (each filter matches about 1/tenants of the rows).
	tenants = 100
	// tailInserts is the number of inserts in the WAL tail of a prepared
	// durable directory (with tailInserts/3 deletes among them); it sits
	// just under the default rebuild size of 4096.
	tailInserts = 4_000
	// ladderWrites is the write stream of the ladder's durable rung on
	// the read workloads (write_mix measures its own write stream).
	ladderWrites = 400
)

// Workload names, as passed to --workload.
const (
	searchAngular  = "search_angular"
	searchFiltered = "search_filtered"
	writeMix       = "write_mix"
)

var workloadNames = []string{searchAngular, searchFiltered, writeMix}

// writeOp is one write: an insert of vec (with attrs) or a delete of id.
type writeOp struct {
	del   bool
	id    int
	vec   []float32
	attrs lccs.Attrs
}

// inputs is one workload's generated input set.
type inputs struct {
	name   string
	metric lccs.MetricKind
	spread float64 // within-cluster spread, scales the query perturbation
	seed   uint64

	// base holds the rows the index starts with; their ids are their
	// positions. tenants, when set, is the tenant attribute of each row.
	base    [][]float32
	tenants []int64

	// calib is the calibration query set (disjoint from the measured
	// stream), calibTenant its filter values.
	calib       [][]float32
	calibTenant []int64

	// stream holds the measured queries in send order; query(i) extends
	// it past its end with perturbed copies so queries never repeat.
	stream       [][]float32
	streamTenant []int64

	// tail is the WAL tail of a prepared durable directory (applied
	// after its checkpoint). writes is write_mix's measured write stream
	// and, on every workload, the ladder's durable-rung writes.
	tail   []writeOp
	writes []writeOp
}

// genInputs generates the named workload's inputs from seed.
func genInputs(name string, seed uint64) (*inputs, error) {
	switch name {
	case searchAngular:
		return genAngular(seed)
	case searchFiltered:
		return genFiltered(seed)
	case writeMix:
		return genWriteMix(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// dataSeed draws the data set, the calibration queries and the WAL
// tail. They fix the index, and with it the calibrated λ, so λ is a
// property of the program under test rather than noise of the run;
// --seed draws the measured query stream (its order and tenants) and
// the measured write stream.
const dataSeed = 20200614

// clustered16 is the 16-d clustered Euclidean distribution of
// search_filtered and write_mix.
func clustered16(nq, clusters int) dataset.Spec {
	return dataset.Spec{Name: "clustered16", Kind: "Synthetic", Dim: 16, NQ: nq,
		Clusters: clusters, Scale: 10, Spread: 1, NoiseFrac: 0.02, Seed: dataSeed}
}

// generate draws n base rows plus the rows the write streams insert,
// the calibration queries and a query pool, and orders the pool into
// the measured stream by seed.
func generate(spec dataset.Spec, n, nCalib, nWrites int, seed uint64) (*inputs, [][]float32, error) {
	spec.N = n + tailInserts + nWrites*3/4
	spec.NQ += nCalib
	ds, err := dataset.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	pool := ds.Queries[nCalib:]
	stream := make([][]float32, len(pool))
	for i, p := range rng.New(seed).Perm(len(pool)) {
		stream[i] = pool[p]
	}
	in := &inputs{spread: spec.Spread, seed: seed, base: ds.Data[:n], calib: ds.Queries[:nCalib], stream: stream}
	return in, ds.Data[n:], nil
}

// writeStreams builds the WAL tail and then nWrites more writes from the
// extra rows: inserts and deletes at 3:1, deletes taking base ids. The
// tail is fixed; the measured writes take the remaining rows and ids in
// an order drawn from the seed. attrsOf, when set, gives extra row j's
// attributes.
func (in *inputs) writeStreams(extra [][]float32, nWrites int, attrsOf func(j int) lccs.Attrs) {
	victims := rng.New(dataSeed ^ 0xDE1E7E).Perm(len(in.base))
	rows := make([]int, len(extra))
	for j := range rows {
		rows[j] = j
	}
	ops := func(nOps int) []writeOp {
		out := make([]writeOp, nOps)
		for i := range out {
			if i%4 == 3 {
				out[i] = writeOp{del: true, id: victims[0]}
				victims = victims[1:]
				continue
			}
			j := rows[0]
			rows = rows[1:]
			out[i] = writeOp{vec: extra[j]}
			if attrsOf != nil {
				out[i].attrs = attrsOf(j)
			}
		}
		return out
	}
	in.tail = ops(tailInserts * 4 / 3)
	g := rng.New(in.seed ^ 0xDE1E7E)
	g.Shuffle(victims)
	g.Shuffle(rows)
	in.writes = ops(nWrites)
}

// genAngular: GloVe-like unit-norm rows (preset glove), n=50k, d=100.
func genAngular(seed uint64) (*inputs, error) {
	spec, err := dataset.Preset("glove", 0, 80_000, dataSeed)
	if err != nil {
		return nil, err
	}
	in, extra, err := generate(spec, 50_000, 200, ladderWrites, seed)
	if err != nil {
		return nil, err
	}
	in.name, in.metric = searchAngular, lccs.Angular
	in.writeStreams(extra, ladderWrites, nil)
	return in, nil
}

// genFiltered: 16-d clustered rows, n=100k, each with a tenant drawn
// independently of its cluster; every query filters one tenant.
func genFiltered(seed uint64) (*inputs, error) {
	in, extra, err := generate(clustered16(10_000, 20), 100_000, 200, ladderWrites, seed)
	if err != nil {
		return nil, err
	}
	in.name, in.metric = searchFiltered, lccs.Euclidean
	draw := func(g *rng.RNG, m int) []int64 {
		out := make([]int64, m)
		for i := range out {
			out[i] = int64(g.IntN(tenants))
		}
		return out
	}
	fixed := rng.New(dataSeed ^ 0x7E4A47)
	in.tenants = draw(fixed, len(in.base))
	in.calibTenant = draw(fixed, len(in.calib))
	extraTenant := draw(fixed, len(extra))
	in.streamTenant = draw(rng.New(seed^0x7E4A47), len(in.stream))
	in.writeStreams(extra, ladderWrites, func(j int) lccs.Attrs {
		return lccs.Attrs{"tenant": lccs.IntAttr(extraTenant[j])}
	})
	return in, nil
}

// genWriteMix: 16-d clustered rows in 200 smaller clusters, where the
// recall of the durable index at the calibrated budget sits well clear
// of the target; 50k rows form the snapshot, the rest feed the WAL tail
// and the measured inserts (60k writes are more than a run
// acknowledges).
func genWriteMix(seed uint64) (*inputs, error) {
	const nWrites = 60_000
	in, extra, err := generate(clustered16(30_000, 200), 50_000, 200, nWrites, seed)
	if err != nil {
		return nil, err
	}
	in.name, in.metric = writeMix, lccs.Euclidean
	in.writeStreams(extra, nWrites, nil)
	return in, nil
}

// query returns measured query i and its tenant (-1 when unfiltered).
// Past the generated stream it returns a perturbed copy of an earlier
// query, so the result cache never sees a repeat.
func (in *inputs) query(i int) ([]float32, int64) {
	n := len(in.stream)
	t := int64(-1)
	if in.streamTenant != nil {
		t = in.streamTenant[i%n]
	}
	if i < n {
		return in.stream[i], t
	}
	g := rng.New(in.seed ^ uint64(i)*0x9E3779B97F4A7C15)
	q := vec.Clone(in.stream[i%n])
	for j := range q {
		q[j] += float32(0.05 * in.spread * g.NormFloat64())
	}
	if in.metric == lccs.Angular {
		vec.NormalizeInPlace(q)
	}
	return q, t
}

// filterFor returns the search filter of a tenant value (nil for -1).
func filterFor(t int64) *lccs.Filter {
	if t < 0 {
		return nil
	}
	return &lccs.Filter{Terms: []lccs.FilterTerm{lccs.EqInt("tenant", t)}}
}

// attrs returns the per-row attribute sets, or nil when rows carry none.
func (in *inputs) attrs() []lccs.Attrs {
	if in.tenants == nil {
		return nil
	}
	out := make([]lccs.Attrs, len(in.tenants))
	for i, t := range in.tenants {
		out[i] = lccs.Attrs{"tenant": lccs.IntAttr(t)}
	}
	return out
}
