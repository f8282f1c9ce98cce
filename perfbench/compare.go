package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runLine is one line of a results file written with --out.
type runLine struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// side holds one commit's end-to-end values: workload → metric → seed → value.
type side map[string]map[string]map[uint64]float64

func readSide(path string) (side, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	s := side{}
	var incorrect []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l runLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if l.Trace != 0 {
			continue
		}
		if !l.Result.Correct {
			incorrect = append(incorrect, fmt.Sprintf("%s %s seed %d", path, l.Workload, l.Seed))
		}
		if s[l.Workload] == nil {
			s[l.Workload] = map[string]map[uint64]float64{}
		}
		for name, m := range l.Result.Metrics {
			if s[l.Workload][name] == nil {
				s[l.Workload][name] = map[uint64]float64{}
			}
			s[l.Workload][name][l.Seed] = m.Value
		}
	}
	return s, incorrect, sc.Err()
}

// verdict compares one metric of one workload across two commits.
type verdict struct {
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	change                  float64 // signed share of the base median; > 0 is worse
	won, pairs              int
	call                    string
}

// judge applies the benchmark's rules: a gain needs the head to win at
// least nine tenths of the seed-matched pairs and the medians to differ
// by more than the base's own quartile spread; a loss is a median worse
// by more than the bound; where the base's spread exceeds the bound the
// call is "unresolved" unless every head run beats every base run.
func judge(base, head map[uint64]float64, higherBetter bool, bound float64) verdict {
	var bv, hv []float64
	var v verdict
	for seed, b := range base {
		bv = append(bv, b)
		h, ok := head[seed]
		if !ok {
			continue
		}
		v.pairs++
		if higherBetter && h > b || !higherBetter && h < b {
			v.won++
		}
	}
	for _, h := range head {
		hv = append(hv, h)
	}
	if len(bv) < 2 || len(hv) < 2 {
		v.call = "too few runs"
		return v
	}
	v.baseMed, v.headMed = median(bv), median(hv)
	v.baseQ1, v.baseQ3 = quartiles(bv)
	v.headQ1, v.headQ3 = quartiles(hv)
	v.change = (v.headMed - v.baseMed) / v.baseMed
	if higherBetter {
		v.change = -v.change
	}
	sort.Float64s(bv)
	sort.Float64s(hv)
	allBetter := higherBetter && hv[0] > bv[len(bv)-1] || !higherBetter && hv[len(hv)-1] < bv[0]
	allWorse := higherBetter && hv[len(hv)-1] < bv[0] || !higherBetter && hv[0] > bv[len(bv)-1]
	spread := (v.baseQ3 - v.baseQ1) / v.baseMed
	switch {
	case 10*v.won >= 9*v.pairs && v.pairs > 0 && math.Abs(v.headMed-v.baseMed) > v.baseQ3-v.baseQ1:
		v.call = "better"
	case allBetter:
		v.call = "better"
	case spread > bound && !(allWorse && v.change > bound):
		v.call = "unresolved"
	case v.change > bound:
		v.call = "worse"
	default:
		v.call = "unchanged"
	}
	return v
}

// compareMain prints, per workload and end-to-end metric, both sides'
// median and quartiles, the seed-matched pairs the head won and the
// verdict under the bounds in BENCHMARK.json. It fails when a metric is
// worse or a run was incorrect.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [--bench BENCHMARK.json] base.jsonl head.jsonl")
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	base, badBase, err := readSide(fs.Arg(0))
	if err != nil {
		return err
	}
	head, badHead, err := readSide(fs.Arg(1))
	if err != nil {
		return err
	}
	worse, err := report(os.Stdout, spec, base, head)
	if err != nil {
		return err
	}
	bad := append(badBase, badHead...)
	for _, b := range bad {
		fmt.Println("incorrect run:", b)
	}
	if worse > 0 || len(bad) > 0 {
		return fmt.Errorf("%d metric(s) worse, %d incorrect run(s)", worse, len(bad))
	}
	return nil
}

// report writes the comparison table and returns how many metrics are
// worse.
func report(w io.Writer, spec benchSpec, base, head side) (int, error) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tworse by\tpairs won\tbound\tverdict")
	worse := 0
	var workloads []string
	for wl := range base {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			v := judge(base[wl][m.Name], head[wl][m.Name], m.Better == "higher", m.Bound)
			if v.call == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, v.baseMed, v.baseQ1, v.baseQ3, v.headMed, v.headQ1, v.headQ3,
				100*v.change, v.won, v.pairs, 100*m.Bound, v.call)
		}
	}
	return worse, tw.Flush()
}
