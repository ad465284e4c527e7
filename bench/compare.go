package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json a comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory, or its parent when run from bench/.
func loadSpec() (benchSpec, error) {
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		spec, err := readSpec(path)
		if !errors.Is(err, os.ErrNotExist) {
			return spec, err
		}
	}
	return benchSpec{}, errors.New("BENCHMARK.json not found in . or ..")
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// loadRecords reads run records. arg is a JSON Lines file of records as
// -out writes them, or FILE#SET naming one array of records in a JSON
// object, as baseline.json holds its sets.
func loadRecords(arg string) ([]record, error) {
	path, set, hasSet := strings.Cut(arg, "#")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if hasSet {
		var sets map[string]json.RawMessage
		if err := json.Unmarshal(data, &sets); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		raw, ok := sets[set]
		if !ok {
			return nil, fmt.Errorf("%s: no set %q", path, set)
		}
		var recs []record
		if err := json.Unmarshal(raw, &recs); err != nil {
			return nil, fmt.Errorf("%s#%s: %w", path, set, err)
		}
		return recs, nil
	}
	var recs []record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Comparison verdicts, per (workload, metric).
const (
	verdictOK         = "ok"         // no worse than the bound
	verdictBetter     = "better"     // every change run beats every parent run
	verdictRegressed  = "REGRESSED"  // worse than the bound, spread within it
	verdictUnresolved = "unresolved" // spread wider than the bound
	verdictRefused    = "REFUSED"    // fewer than minSamples runs on a side
)

// minSamples is the fewest runs per side a comparison accepts.
const minSamples = 3

type comparison struct {
	workload, metric string
	parent, change   summary
	worse            float64 // share of the parent median the change is worse by
	bound            float64
	verdict          string
}

// compareRecords judges every (workload, end-to-end metric) pair of
// BENCHMARK.json, plus each workload's fail rate: medians and quartiles
// per side, a regression only beyond the metric's bound, "unresolved"
// where either side's quartile spread is wider than the bound unless every
// change run reads better than every parent run, and no verdict from fewer
// than three runs.
func compareRecords(spec benchSpec, parent, change []record) []comparison {
	var out []comparison
	for _, w := range spec.Workloads {
		p, c := byWorkload(parent, w.Name), byWorkload(change, w.Name)
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			out = append(out, compareMetric(w.Name, m, values(p, m.Name), values(c, m.Name)))
		}
		out = append(out, compareFailRate(w.Name, p, c))
	}
	return out
}

func compareMetric(workload string, m specMetric, p, c []float64) comparison {
	cmp := comparison{workload: workload, metric: m.Name, bound: m.Bound,
		parent: summarize(p), change: summarize(c)}
	if len(p) < minSamples || len(c) < minSamples {
		cmp.verdict = verdictRefused
		return cmp
	}
	sign := 1.0 // worse means larger
	if m.Better == "higher" {
		sign = -1
	}
	if cmp.parent.med != 0 {
		cmp.worse = sign * (cmp.change.med - cmp.parent.med) / cmp.parent.med
	}
	switch {
	case allBetter(p, c, sign):
		cmp.verdict = verdictBetter
	case cmp.parent.spread() > m.Bound || cmp.change.spread() > m.Bound:
		cmp.verdict = verdictUnresolved
	case cmp.worse > m.Bound:
		cmp.verdict = verdictRegressed
	default:
		cmp.verdict = verdictOK
	}
	return cmp
}

// allBetter reports whether every change run beats every parent run.
func allBetter(p, c []float64, sign float64) bool {
	for _, x := range c {
		for _, y := range p {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareFailRate flags a change that fails a larger share of its
// discoveries than the parent; the bound is zero.
func compareFailRate(workload string, p, c []record) comparison {
	rate := func(rs []record) (float64, int) {
		var failed, attempted int
		for _, r := range rs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return ratio(float64(failed), float64(attempted)), len(rs)
	}
	pr, pn := rate(p)
	cr, cn := rate(c)
	cmp := comparison{workload: workload, metric: "fail_rate",
		parent: summary{n: pn, q1: pr, med: pr, q3: pr}, change: summary{n: cn, q1: cr, med: cr, q3: cr},
		worse: cr - pr, verdict: verdictOK}
	switch {
	case pn < minSamples || cn < minSamples:
		cmp.verdict = verdictRefused
	case cr > pr:
		cmp.verdict = verdictRegressed
	}
	return cmp
}

func byWorkload(rs []record, name string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// runCompare prints the comparison of two record sets and exits 1 on any
// regression or refusal.
func runCompare(parentArg, changeArg string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	parent, err := loadRecords(parentArg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	change, err := loadRecords(changeArg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	status := 0
	fmt.Fprintf(stdout, "%-18s %-16s %-40s %-40s %9s %7s  %s\n",
		"workload", "metric", "parent median [q1, q3] n", "change median [q1, q3] n", "worse", "bound", "verdict")
	for _, c := range compareRecords(spec, parent, change) {
		fmt.Fprintf(stdout, "%-18s %-16s %-40s %-40s %+8.2f%% %6.2f%%  %s\n",
			c.workload, c.metric, describe(c.parent), describe(c.change), 100*c.worse, 100*c.bound, c.verdict)
		if c.verdict == verdictRegressed || c.verdict == verdictRefused {
			status = 1
		}
	}
	return status
}

func describe(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.med, s.q1, s.q3, s.n)
}
