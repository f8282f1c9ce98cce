package main

import "lccs"

// addIntoRuns measures the zero-allocation SearchCostInto path (reused
// result row, no cost record, no trace) alongside the allocating Search
// API, so the JSON report shows both the per-call and the pooled
// steady-state cost.
func addIntoRuns(rep *Report, name string, ix lccs.Searcher, queries [][]float32, rounds, k int) {
	var dst []lccs.Neighbor
	r := measureLoop(queries, rounds, func(q []float32) {
		var err error
		dst, err = ix.SearchCostInto(q, k, 0, nil, dst, nil, nil)
		if err != nil {
			panic(err)
		}
	})
	r.Note = "pooled zero-allocation SearchCostInto with a reused result row"
	rep.Runs[name+"_into"] = r
}
