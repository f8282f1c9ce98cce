package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"lccs/internal/vec"
)

// digest hashes every input a workload hands the system under test.
func digest(in *inputs) [32]byte {
	h := sha256.New()
	put := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	rows := func(rs [][]float32) {
		put(uint64(len(rs)))
		for _, r := range rs {
			for _, x := range r {
				put(uint64(math.Float32bits(x)))
			}
		}
	}
	ints := func(xs []int64) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(x))
		}
	}
	ops := func(os []writeOp) {
		for _, op := range os {
			if op.del {
				put(uint64(op.id))
				continue
			}
			rows([][]float32{op.vec})
			if t, ok := op.attrs["tenant"]; ok {
				put(uint64(t.Int))
			}
		}
	}
	rows(in.base)
	ints(in.tenants)
	rows(in.calib)
	ints(in.calibTenant)
	rows(in.stream)
	ints(in.streamTenant)
	ops(in.tail)
	ops(in.writes)
	q, t := in.query(len(in.stream) + 3) // a perturbed query past the stream
	rows([][]float32{q})
	put(uint64(t))
	return [32]byte(h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := genInputs(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genInputs(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genInputs(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if digest(a) != digest(b) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if digest(a) == digest(c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestCalibrationQueriesDisjointFromStream(t *testing.T) {
	in, err := genInputs(searchAngular, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[32]byte]bool{}
	key := func(v []float32) [32]byte {
		b := make([]byte, 0, 4*len(v))
		for _, x := range v {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		return sha256.Sum256(b)
	}
	for _, q := range in.calib {
		seen[key(q)] = true
	}
	for i := 0; i < len(in.stream)+100; i++ {
		q, _ := in.query(i)
		if seen[key(q)] {
			t.Fatalf("measured query %d repeats a calibration or earlier query", i)
		}
		seen[key(q)] = true
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100, 99, ..., 1: unsorted input
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile([]float64{5}, 99); got != 5 {
		t.Errorf("p99 of one value = %v, want 5", got)
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of {3,1,2} = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("p50 of nothing should be NaN")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", m)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", m)
	}
}

func TestUndisturbedWindows(t *testing.T) {
	s := func(at time.Duration, ms float64, ok bool) searchSample { return searchSample{at, ms, ok} }
	var samples []searchSample
	// Ten 1 s windows: nine answer 10 searches each at 1..10 ms, the
	// sixth (a slow spell) answers 4 at 50 ms and fails one.
	for w := 0; w < 10; w++ {
		at := time.Duration(w) * time.Second
		if w == 5 {
			for i := 0; i < 4; i++ {
				samples = append(samples, s(at+time.Duration(i)*time.Millisecond, 50, true))
			}
			samples = append(samples, s(at+900*time.Millisecond, 50, false))
			continue
		}
		for i := 0; i < 10; i++ {
			samples = append(samples, s(at+time.Duration(i)*time.Millisecond, float64(i+1), true))
		}
	}
	qps, p50, p95, kept := undisturbedWindows(samples, 10*time.Second, time.Second, 0.8)
	if qps != 10 || p50 != 5 || p95 != 10 || kept != 9 {
		t.Errorf("slow window left out: %v/s, p50 %v, p95 %v over %d windows; want 10/s, 5, 10 over 9", qps, p50, p95, kept)
	}
	// With keep 0.4 the slow window (4 ≥ 0.4×10) counts: 94 answered
	// in 10 s, and its 5 samples are the slowest of 95, which moves the
	// nearest-rank p50 (rank 48) from 5 to 6.
	qps, p50, p95, kept = undisturbedWindows(samples, 10*time.Second, time.Second, 0.4)
	if qps != 9.4 || p50 != 6 || p95 != 50 || kept != 10 {
		t.Errorf("every window kept: %v/s, p50 %v, p95 %v over %d windows; want 9.4/s, 6, 50 over 10", qps, p50, p95, kept)
	}
}

func TestRecallAt(t *testing.T) {
	if got := recallAt([]int32{1, 2, 3}, []int32{3, 4, 5, 1}); got != 0.5 {
		t.Errorf("recall = %v, want 0.5", got)
	}
	if got := recallAt([]int32{9, 8}, []int32{8, 9}); got != 1 {
		t.Errorf("recall of a reordered exact answer = %v, want 1", got)
	}
	if got := recallAt(nil, []int32{1}); got != 0 {
		t.Errorf("recall of an empty answer = %v, want 0", got)
	}
}

func TestExactTopK(t *testing.T) {
	rows := [][]float32{{0, 0}, {5, 5}, {1, 0}, {0, 2}, {3, 0}, {9, 9}, {0, 4}, {6, 0}, {0, 7}, {8, 0}, {0, 10}, {12, 0}}
	ls, err := rowsLiveSet(rows)
	if err != nil {
		t.Fatal(err)
	}
	got := ls.truth([][]float32{{0, 0}}, nil, vec.Euclidean, nil)[0]
	want := []int32{0, 2, 3, 4, 6, 7, 8, 1, 9, 10} // distances 0,1,2,3,4,6,7,7.07,8,10
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	keepOdd := func(id int32) bool { return id%2 == 1 }
	got = ls.truth([][]float32{{0, 0}}, []int64{1}, vec.Euclidean, func(id int32) int64 { return int64(id % 2) })[0]
	for _, id := range got {
		if !keepOdd(id) {
			t.Fatalf("filtered truth %v holds id %d", got, id)
		}
	}
}

// plantedChecker serves rows i → (i, 0) with tenant i%2; id 3 was
// deleted at 5ms.
func plantedChecker() *checker {
	return &checker{
		metric: vec.Euclidean,
		vector: func(id int32) []float32 {
			if id < 0 || id >= 100 {
				return nil
			}
			return []float32{float32(id), 0}
		},
		tenant:    func(id int32) int64 { return int64(id % 2) },
		deletedAt: map[int32]time.Duration{3: 5 * time.Millisecond},
	}
}

// answer builds a search record for the query (0, 0) returning ids.
func answer(ids ...int32) *record {
	r := &record{status: http.StatusOK, start: 10 * time.Millisecond}
	for _, id := range ids {
		r.ids = append(r.ids, id)
		r.dists = append(r.dists, float64(id))
	}
	return r
}

func TestCheckerPassesRightAnswer(t *testing.T) {
	c := plantedChecker()
	q := []float32{0, 0}
	if f := c.searchFault(answer(0, 1, 2, 4, 5, 6, 7, 8, 9, 10), q, -1); f != "" {
		t.Errorf("right answer flagged: %s", f)
	}
	if f := c.searchFault(answer(1, 5, 7, 9, 11, 13, 15, 17, 19, 21), q, 1); f != "" {
		t.Errorf("right filtered answer flagged: %s", f)
	}
	// A delete acknowledged after the search was sent may still show.
	early := answer(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	early.start = time.Millisecond
	if f := c.searchFault(early, q, -1); f != "" {
		t.Errorf("answer racing a delete flagged: %s", f)
	}
}

func TestCheckerCountsPlantedWrongAnswers(t *testing.T) {
	c := plantedChecker()
	q := []float32{0, 0}
	cases := map[string]*record{
		"deleted id":      answer(0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		"fails filter":    answer(1, 5, 7, 9, 11, 13, 15, 17, 19, 20),
		"unknown id":      answer(0, 1, 2, 4, 5, 6, 7, 8, 9, 100),
		"short answer":    answer(0, 1, 2),
		"duplicate id":    answer(0, 1, 2, 4, 5, 6, 7, 8, 9, 9),
		"not ascending":   answer(0, 1, 2, 5, 4, 6, 7, 8, 9, 10),
		"http error":      {status: http.StatusServiceUnavailable},
		"undecodable 200": {status: http.StatusOK, bad: "decode: unexpected EOF"},
	}
	wrongDist := answer(0, 1, 2, 4, 5, 6, 7, 8, 9, 10)
	wrongDist.dists[4] = 4.5
	cases["wrong distance"] = wrongDist
	var tl tally
	for name, r := range cases {
		tenant := int64(-1)
		if name == "fails filter" {
			tenant = 1
		}
		f := c.searchFault(r, q, tenant)
		if f == "" {
			t.Errorf("%s: passed the checks", name)
		}
		tl.add(f)
	}
	if tl.failed != int64(len(cases)) || tl.attempted != int64(len(cases)) {
		t.Errorf("tally counted %d failed of %d, want %d of %d", tl.failed, tl.attempted, len(cases), len(cases))
	}
}

func TestWriteFault(t *testing.T) {
	ok := &record{kind: opDelete, status: http.StatusOK, ids: []int32{1}}
	if f := writeFault(ok); f != "" {
		t.Errorf("good delete flagged: %s", f)
	}
	if f := writeFault(&record{kind: opDelete, status: http.StatusOK, ids: []int32{0}}); f == "" {
		t.Error("delete of a live id that deleted nothing passed")
	}
	if f := writeFault(&record{kind: opInsert, status: http.StatusInternalServerError}); f == "" {
		t.Error("failed insert passed")
	}
}

func TestJudge(t *testing.T) {
	base := map[uint64]float64{}
	better := map[uint64]float64{}
	same := map[uint64]float64{}
	worse := map[uint64]float64{}
	for s := uint64(0); s < 10; s++ {
		v := 100 + float64(s%3) // spread 2% around 101
		base[s], better[s], same[s], worse[s] = v, v*1.2, v+float64(s%2)*0.5-0.25, v*0.8
	}
	for name, tc := range map[string]struct {
		head map[uint64]float64
		want string
	}{"better": {better, "better"}, "same": {same, "unchanged"}, "worse": {worse, "worse"}} {
		if v := judge(base, tc.head, true, 0.1); v.call != tc.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", name, v.call, tc.want, v)
		}
	}
	// Lower-is-better flips the direction.
	if v := judge(base, worse, false, 0.1); v.call != "better" {
		t.Errorf("lower-better: verdict %q, want better", v.call)
	}
	// A spread wider than the bound leaves a small loss unresolved.
	noisy := map[uint64]float64{}
	for s := uint64(0); s < 10; s++ {
		noisy[s] = 100 + 30*float64(s%3)
	}
	if v := judge(noisy, same, true, 0.1); v.call != "unresolved" {
		t.Errorf("noisy base: verdict %q, want unresolved", v.call)
	}
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json names exactly
// the metrics the benchmark prints, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	// Every gated workload must exist; write_mix runs only on request.
	known := map[string]bool{}
	for _, name := range workloadNames {
		known[name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %s, which the code does not have", w.Name)
		}
	}
}
