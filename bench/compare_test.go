package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4.72, 4.41}, 4.3325, 4.565, 4.7975},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.in)
		if !near(s.q1, tc.q1) || !near(s.med, tc.med) || !near(s.q3, tc.q3) {
			t.Errorf("summarize(%v) = [%v %v %v], want [%v %v %v]", tc.in, s.q1, s.med, s.q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCompareMetric(t *testing.T) {
	lower := specMetric{Name: "discover_s", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "solved", Better: "higher", Bound: 0.001}
	for _, tc := range []struct {
		name   string
		m      specMetric
		p, c   []float64
		expect string
	}{
		{"within bound", lower, []float64{10, 10.2, 9.9}, []float64{10.3, 10.1, 10.4}, verdictOK},
		{"worse than bound", lower, []float64{10, 10.2, 9.9}, []float64{12, 12.2, 11.9}, verdictRegressed},
		{"spread wider than bound", lower, []float64{8, 10, 12}, []float64{9, 11, 10}, verdictUnresolved},
		{"wide spread but every run better", lower, []float64{8, 10, 12}, []float64{5, 6, 7}, verdictBetter},
		{"two samples", lower, []float64{10, 10}, []float64{10, 10, 10}, verdictRefused},
		{"count dropped", higher, []float64{174, 174, 174}, []float64{173, 173, 173}, verdictRegressed},
		{"count held", higher, []float64{174, 174, 174}, []float64{174, 174, 174}, verdictOK},
		{"count rose", higher, []float64{174, 174, 174}, []float64{175, 175, 175}, verdictBetter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := compareMetric("w", tc.m, tc.p, tc.c); got.verdict != tc.expect {
				t.Errorf("verdict %s (worse %+.4f), want %s", got.verdict, got.worse, tc.expect)
			}
		})
	}
}

// TestCompareFixtures compares the fixture record sets end to end: w1 is
// within bounds; w2 slowed by 20%, lost a solved sample, failed a
// discovery, and has too few runs for any verdict but a refusal.
func TestCompareFixtures(t *testing.T) {
	spec, err := readSpec("testdata/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	lines, err := loadRecords("testdata/parent.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	parent, err := loadRecords("testdata/runs.json#parent")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 6 || len(parent) != len(lines) {
		t.Fatalf("loaded %d JSON Lines records and %d from a set, want 6 each", len(lines), len(parent))
	}
	change, err := loadRecords("testdata/runs.json#change")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadRecords("testdata/runs.json#missing"); err == nil {
		t.Error("loading a missing set succeeded")
	}
	want := map[[2]string]string{
		{"w1", "discover_s"}: verdictOK,
		{"w1", "solved"}:     verdictOK,
		{"w1", "fail_rate"}:  verdictOK,
		{"w2", "discover_s"}: verdictRefused,
		{"w2", "solved"}:     verdictRefused,
		{"w2", "fail_rate"}:  verdictRefused,
	}
	got := compareRecords(spec, parent, change)
	if len(got) != len(want) {
		t.Fatalf("%d comparisons, want %d", len(got), len(want))
	}
	for _, c := range got {
		if w := want[[2]string{c.workload, c.metric}]; c.verdict != w {
			t.Errorf("%s %s: verdict %s, want %s", c.workload, c.metric, c.verdict, w)
		}
	}

	// A third w2 run lifts the refusal and exposes all three regressions.
	extra := change[len(change)-1]
	extra.Metrics = map[string]metric{"discover_s": {Value: 6.2}, "solved": {Value: 173}}
	extra.Failed = 0
	for _, c := range compareRecords(spec, parent, append(change, extra)) {
		if c.workload == "w2" && c.verdict != verdictRegressed {
			t.Errorf("w2 %s: verdict %s, want %s", c.metric, c.verdict, verdictRegressed)
		}
	}
}

func TestCompareFailRateRegression(t *testing.T) {
	p := []record{{Workload: "w", Attempted: 10}, {Workload: "w", Attempted: 10}, {Workload: "w", Attempted: 10}}
	c := append([]record(nil), p...)
	if got := compareFailRate("w", p, c); got.verdict != verdictOK {
		t.Errorf("equal fail rates: %s", got.verdict)
	}
	c[1].Failed = 1
	if got := compareFailRate("w", p, c); got.verdict != verdictRegressed {
		t.Errorf("one more failure: %s", got.verdict)
	}
}
