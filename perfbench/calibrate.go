package main

import (
	"math"
	"sync"

	"lccs"
)

// lambdaGrid is the calibration grid: from 1 upwards in steps of at
// most 3% (and at least 1, where a step of λ is small against the
// query's fixed costs), so one grid step moves search cost by far less
// than the benchmark's bound on search_qps. It ends at the first budget
// ≥ n rows, which verifies every row.
func lambdaGrid(n int) []int {
	g := []int{1}
	for g[len(g)-1] < n {
		l := g[len(g)-1]
		g = append(g, max(l+1, l*103/100))
	}
	return g
}

// calibration is the outcome of calibrate: the budget and the mean
// calibration-set recall it reached.
type calibration struct {
	lambda int
	recall float64
}

// calibrate finds the smallest grid budget at which the searcher's
// recall@k on the calibration queries reaches target. A budget
// reaches a target when the lower end of its recall's two-standard-error
// interval does, so the measured queries (a different sample) reach it
// too. Recall cannot fall as λ grows (a larger budget verifies a
// superset of the same candidate stream), so a galloping search from
// the cheap end of the grid is exact and never evaluates a budget much
// larger than the answer. A target no grid budget reaches reports the
// largest one. n is the number of live rows.
func calibrate(s lccs.CostSearcher, n int, qs [][]float32, tenants []int64, truth [][]int32, target float64) (calibration, error) {
	grid := lambdaGrid(n)
	type eval struct{ mean, low float64 }
	memo := map[int]eval{}
	var firstErr error
	at := func(i int) eval {
		if e, ok := memo[i]; ok {
			return e
		}
		rs, err := queryRecalls(s, qs, tenants, truth, grid[i])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		mean, sd := meanSD(rs)
		e := eval{mean, mean - 2*sd/math.Sqrt(float64(len(rs)))}
		memo[i] = e
		return e
	}
	lowest := func(from int) int {
		last := len(grid) - 1
		if at(from).low >= target {
			return from
		}
		// Gallop: recall(lo) < target; widen the step until hi reaches it.
		lo, step := from, 1
		hi := min(lo+step, last)
		for hi < last && at(hi).low < target {
			lo, step = hi, step*2
			hi = min(lo+step, last)
		}
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if at(mid).low >= target {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}
	i := lowest(0)
	return calibration{lambda: grid[i], recall: at(i).mean}, firstErr
}

// meanSD returns the mean and the sample standard deviation of xs.
func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}

// queryRecalls returns the recall@k of the searcher at budget lambda
// on each query, split over two goroutines.
func queryRecalls(s lccs.CostSearcher, qs [][]float32, tenants []int64, truth [][]int32, lambda int) ([]float64, error) {
	const workers = 2
	out := make([]float64, len(qs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]lccs.Neighbor, 0, k)
			got := make([]int32, 0, k)
			for i := w; i < len(qs); i += workers {
				t := int64(-1)
				if tenants != nil {
					t = tenants[i]
				}
				res, err := s.SearchCostInto(qs[i], k, lambda, filterFor(t), dst[:0], nil, nil)
				if err != nil {
					errs[w] = err
					return
				}
				got = got[:0]
				for _, nb := range res {
					got = append(got, int32(nb.ID))
				}
				out[i] = recallAt(got, truth[i])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
