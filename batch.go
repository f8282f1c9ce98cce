package lccs

import (
	"runtime"
	"sync"
)

// searchBatch answers many queries concurrently across all CPUs; results
// are returned in query order and each row is byte-identical to what a
// sequential SearchBudget call would return. search answers one query
// into a caller buffer — the facade's search body bound to k and λ. The
// first per-query validation error fails the whole batch; k and λ are
// checked up front so even an empty batch holds the shared validation
// contract.
//
// Workers share the backend's pooled search contexts and reuse one
// scratch row each, so the only per-query allocation left is the result
// row handed back to the caller.
func searchBatch(queries [][]float32, k, lambda int, search func(q []float32, dst []Neighbor) ([]Neighbor, error)) ([][]Neighbor, error) {
	if err := validateBudget(k, lambda); err != nil {
		return nil, err
	}
	out := make([][]Neighbor, len(queries))
	errs := make([]error, len(queries))
	// run answers query i into a worker-owned scratch row and copies the
	// result out, so the search body never allocates beyond the returned
	// row.
	run := func(i int, scratch []Neighbor) []Neighbor {
		res, err := search(queries[i], scratch)
		if err != nil {
			errs[i] = err
			return scratch
		}
		out[i] = append(make([]Neighbor, 0, len(res)), res...)
		return res
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		var scratch []Neighbor
		for i := range queries {
			scratch = run(i, scratch)
		}
		return batchResult(out, errs)
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []Neighbor
			for i := range ch {
				scratch = run(i, scratch)
			}
		}()
	}
	for i := range queries {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return batchResult(out, errs)
}

// batchResult collapses per-query errors: the first one (in query order)
// fails the batch, so callers never see partial results.
func batchResult(out [][]Neighbor, errs []error) ([][]Neighbor, error) {
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SearchBatch answers many queries concurrently across all CPUs with the
// index's default candidate budget; results are returned in query order.
// Each query's result slice matches what Search would return.
func (ix *Index) SearchBatch(queries [][]float32, k int) ([][]Neighbor, error) {
	return ix.SearchBatchBudget(queries, k, ix.cfg.Budget)
}

// SearchBatchBudget is SearchBatch with an explicit candidate budget λ.
func (ix *Index) SearchBatchBudget(queries [][]float32, k, lambda int) ([][]Neighbor, error) {
	return searchBatch(queries, k, lambda, func(q []float32, dst []Neighbor) ([]Neighbor, error) {
		return ix.SearchCostInto(q, k, lambda, nil, dst, nil, nil)
	})
}

// SearchBatch answers many queries concurrently with the index's default
// candidate budget; results are returned in query order. When the batch
// has at least GOMAXPROCS queries the worker pool already saturates the
// CPUs, so each query runs its shard fan-out sequentially; smaller
// batches keep the per-shard fan-out so idle cores still help.
func (sx *ShardedIndex) SearchBatch(queries [][]float32, k int) ([][]Neighbor, error) {
	return sx.SearchBatchBudget(queries, k, sx.cfg.Budget)
}

// SearchBatchBudget is SearchBatch with an explicit candidate budget λ.
// The merge is deterministic, so either fan-out yields the rows
// SearchBudget would.
func (sx *ShardedIndex) SearchBatchBudget(queries [][]float32, k, lambda int) ([][]Neighbor, error) {
	parallel := len(queries) < runtime.GOMAXPROCS(0)
	return searchBatch(queries, k, lambda, func(q []float32, dst []Neighbor) ([]Neighbor, error) {
		return sx.searchCostInto(q, k, lambda, parallel, nil, dst, nil, nil)
	})
}

// SearchBatch answers many queries concurrently under the default
// candidate budget; results are returned in query order.
func (d *DynamicIndex) SearchBatch(queries [][]float32, k int) ([][]Neighbor, error) {
	d.mu.RLock()
	lambda := d.cfg.Budget
	d.mu.RUnlock()
	return d.SearchBatchBudget(queries, k, lambda)
}

// SearchBatchBudget is SearchBatch with an explicit candidate budget λ.
func (d *DynamicIndex) SearchBatchBudget(queries [][]float32, k, lambda int) ([][]Neighbor, error) {
	return searchBatch(queries, k, lambda, func(q []float32, dst []Neighbor) ([]Neighbor, error) {
		return d.SearchCostInto(q, k, lambda, nil, dst, nil, nil)
	})
}
