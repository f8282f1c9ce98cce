// Command perfbench is the repository's benchmark. It drives the lccs
// daemon's HTTP API (internal/server over the lccs facades, configured
// as lccs-serve is by default) with one of three seeded workloads, at a
// candidate budget λ calibrated during set-up to the smallest one that
// reaches recall@10 ≥ 0.90, checks every answer, and prints one JSON
// result line. With --trace 1 it runs the per-layer ladder instead (see
// ladder.go). The compare subcommand summarizes two sets of results.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload search_angular --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --workload write_mix --seed 1 --seconds 35 --trace 0 --out head.jsonl
//	bash perfbench/run.sh compare base.jsonl head.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload: search_angular | search_filtered | write_mix")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end run; 1: traced per-layer ladder")
		out      = flag.String("out", "", "also append {workload, seed, trace, result} as one JSON line to this file")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendResult(*out, *workload, *seed, *trace, line); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run generates the workload's inputs in a scratch directory and runs
// either the end-to-end measurement or the traced ladder.
func run(name string, seed uint64, d time.Duration, traced bool) (*result, error) {
	in, err := genInputs(name, seed)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	var res *result
	if traced {
		res, err = runLadder(in, work, d)
	} else {
		res, err = runEndToEnd(in, work, d)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number (%v)", name, m.Value)
		}
	}
	return res, nil
}

// appendResult appends one result line, tagged with its run, to path.
func appendResult(path, workload string, seed uint64, trace int, line []byte) error {
	tagged, err := json.Marshal(struct {
		Workload string          `json:"workload"`
		Seed     uint64          `json:"seed"`
		Trace    int             `json:"trace"`
		Result   json.RawMessage `json:"result"`
	}{workload, seed, trace, line})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(tagged, '\n'))
	return errors.Join(werr, f.Close())
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// logf writes a human-readable progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
