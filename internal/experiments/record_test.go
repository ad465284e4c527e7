package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"srcg"
	"srcg/internal/core"
	"srcg/internal/gen"
)

// recordPath is the file whose per-experiment record pins the suite's
// output at Seed.
const recordPath = "../../EXPERIMENTS.md"

// recordBounds returns the offsets of the per-experiment record in md:
// the lines of the fenced block after the "## Per-experiment record"
// heading, fences excluded. The record is the suite's output without its
// final blank line.
func recordBounds(t *testing.T, md string) (start, end int) {
	t.Helper()
	h := strings.Index(md, "\n## Per-experiment record\n")
	fence := strings.Index(md[max(h, 0):], "\n```\n")
	if h < 0 || fence < 0 {
		t.Fatalf("%s has no fenced per-experiment record", recordPath)
	}
	start = h + fence + len("\n```\n")
	n := strings.Index(md[start:], "\n```\n")
	if n < 0 {
		t.Fatalf("%s's per-experiment record is not closed", recordPath)
	}
	return start, start + n + 1
}

// splitRecord splits the suite's output into its "==== Exx" blocks,
// keyed by ID.
func splitRecord(out string) (ids []string, blocks map[string]string) {
	blocks = map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "==== "); ok {
			id, _, _ = strings.Cut(rest, " ")
			ids = append(ids, id)
		}
		blocks[id] += line
	}
	return ids, blocks
}

// firstDiff names the first line where two blocks differ.
func firstDiff(rec, got string) string {
	r, g := strings.Split(rec, "\n"), strings.Split(got, "\n")
	for i := range max(len(r), len(g)) {
		var rl, gl string
		if i < len(r) {
			rl = r[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if rl != gl {
			return fmt.Sprintf("line %d:\nrecord: %s\nsuite:  %s", i+1, rl, gl)
		}
	}
	return ""
}

// TestRecordMatchesSuite: EXPERIMENTS.md records the output of
// `go run ./cmd/experiments` at Seed, and every "==== Exx" block must
// read as the suite prints it. A change that moves an experiment
// regenerates the record in the same change: SRCG_UPDATE_GOLDEN=1
// rewrites it from the suite's output.
func TestRecordMatchesSuite(t *testing.T) {
	raw, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	md := string(raw)
	start, end := recordBounds(t, md)
	s := NewSuite()
	var out strings.Builder
	for _, id := range IDs() {
		r, err := s.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(r.String())
	}
	if os.Getenv("SRCG_UPDATE_GOLDEN") != "" {
		rec := strings.TrimSuffix(out.String(), "\n")
		if err := os.WriteFile(recordPath, []byte(md[:start]+rec+md[end:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	ids, got := splitRecord(out.String())
	recIDs, rec := splitRecord(md[start:end] + "\n")
	for _, id := range ids {
		if rec[id] != got[id] {
			t.Fatalf("%s's record of %s is not the suite's output (re-pin with SRCG_UPDATE_GOLDEN=1): %s",
				recordPath, id, firstDiff(rec[id], got[id]))
		}
	}
	if !slices.Equal(recIDs, ids) {
		t.Errorf("%s records %v; the suite runs %v", recordPath, recIDs, ids)
	}
	checkCostRow(t, md, got["E15"])
	checkSearchRow(t, md, got["E10"])
	checkDivergenceNotes(t, md)
	checkSolvedRows(t, md, got["E14"], got["E16"], got["E20"])
}

// kRange renders the least and greatest of vs rounded to 0.1k, as the
// summary table quotes them: "0.5k–1.3k".
func kRange(vs []int) string {
	k := func(v int) string {
		tenths := (v + 50) / 100
		return fmt.Sprintf("%d.%dk", tenths/10, tenths%10)
	}
	return k(slices.Min(vs)) + "–" + k(slices.Max(vs))
}

// checkCostRow holds the summary table's "Complete analysis takes hours"
// row to the E15 block: its executions, physical runs and assembles
// ranges over the five targets, and the runs each execution costs, the
// tenths that bracket every target's runs/executions. E15's own note
// must quote the same bracket.
func checkCostRow(t *testing.T, md, e15 string) {
	t.Helper()
	_, row, ok := strings.Cut(md, "\n| Complete analysis takes hours")
	row, _, _ = strings.Cut(row, "\n")
	lines := strings.Split(strings.TrimSpace(e15), "\n")
	if !ok || len(lines) < 3 {
		t.Fatalf("%s has no cost row, or E15 no table", recordPath)
	}
	col := map[string][]int{}
	header := strings.Fields(lines[1])
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) != len(header) {
			break // the table ends at the first blank line
		}
		for i, name := range header[1:] {
			v, err := strconv.Atoi(f[i+1])
			if err != nil {
				t.Fatalf("E15 %s %s: %v", f[0], name, err)
			}
			col[name] = append(col[name], v)
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, runs := range col["runs"] {
		r := float64(runs) / float64(col["executions"][i])
		lo, hi = min(lo, r), max(hi, r)
	}
	lo, hi = math.Floor(10*lo)/10, math.Ceil(10*hi)/10
	for _, want := range []string{
		kRange(col["executions"]) + " executions",
		"paid with " + kRange(col["runs"]) + " physical runs",
		fmt.Sprintf(": %.1f–%.1f runs each", lo, hi),
		kRange(col["assembles"]) + " assembles",
	} {
		if !strings.Contains(row, want) {
			t.Errorf("%s's cost row does not quote E15's %q", recordPath, want)
		}
	}
	if want := fmt.Sprintf("runs/executions is %.1f-%.1f", lo, hi); !strings.Contains(strings.Join(strings.Fields(e15), " "), want) {
		t.Errorf("E15's note does not read %q", want)
	}
}

// checkSearchRow holds the summary table's "one or two tries" row to the
// E10 block: "SPARC, Alpha and MIPS try T, T and T candidates for S, S and
// S solved searches, L–H tries/search on average", "x86 tries T for S
// (A/search)" and "VAX tries T: U of them are the one search of the
// unsolvable `int.shr.b_c` ..., and its S solved searches take R,
// P/search", where each T and S are the target's candidates tried and
// by-search in E10, L–H and A are T/S rounded to 0.1, VAX's two parts
// add up to its T, and P is R/S rounded.
func checkSearchRow(t *testing.T, md, e10 string) {
	t.Helper()
	_, row, ok := strings.Cut(md, "\n| Reverse interpreter finds interpretations")
	row, _, _ = strings.Cut(row, "\n")
	m := regexp.MustCompile("VAX tries ([0-9,]+): ([0-9,]+) of them are .* its ([0-9]+) solved searches take ([0-9,]+), ([0-9]+)/search").FindStringSubmatch(row)
	if !ok || m == nil {
		t.Fatalf("%s has no search row quoting VAX's tries", recordPath)
	}
	n := make([]int, len(m))
	for i := 1; i < len(m); i++ {
		n[i], _ = strconv.Atoi(strings.ReplaceAll(m[i], ",", ""))
	}
	bySearch, tried := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(e10, "\n") {
		if f := strings.Fields(line); len(f) == 6 {
			bySearch[f[0]], _ = strconv.Atoi(f[4])
			tried[f[0]], _ = strconv.Atoi(f[5])
		}
	}
	if n[1] != tried["vax"] || n[3] != bySearch["vax"] || n[2]+n[4] != tried["vax"] || n[5] != (2*n[4]+n[3])/(2*n[3]) {
		t.Errorf("%s's search row quotes VAX %q; E10 has %d candidates tried and %d by search",
			recordPath, m[0], tried["vax"], bySearch["vax"])
	}
	perSearch := func(arch string) float64 { return float64(tried[arch]) / float64(bySearch[arch]) }
	risc := []float64{perSearch("sparc"), perSearch("alpha"), perSearch("mips")}
	for _, want := range []string{
		fmt.Sprintf("SPARC, Alpha and MIPS try %d, %d and %d candidates for %d, %d and %d solved searches, %.1f–%.1f tries/search on average",
			tried["sparc"], tried["alpha"], tried["mips"], bySearch["sparc"], bySearch["alpha"], bySearch["mips"],
			slices.Min(risc), slices.Max(risc)),
		fmt.Sprintf("x86 tries %d for %d (%.1f/search)", tried["x86"], bySearch["x86"], perSearch("x86")),
	} {
		if !strings.Contains(row, want) {
			t.Errorf("%s's search row does not quote E10's %q", recordPath, want)
		}
	}
}

// checkSolvedRows holds the summary table's rows that quote E14, E16 and
// E20: "N/N samples solved on four targets, M/N on VAX" is E14's samples
// column, whose four other targets must agree; "V/W end-to-end validation
// programs" sums its valid column; "Blind search needs R× more" is E16's
// blind candidates over its full ones, rounded; and E20's ablation row
// quotes "solved drops S→T and validation V→W".
func checkSolvedRows(t *testing.T, md, e14, e16, e20 string) {
	t.Helper()
	samples := map[string]string{}
	valid, programs := 0, 0
	for _, line := range strings.Split(e14, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || !slices.Contains(Archs, f[0]) {
			continue
		}
		samples[f[0]] = f[3]
		var v, n int
		if _, err := fmt.Sscanf(f[4], "%d/%d", &v, &n); err != nil {
			t.Fatalf("E14 %s valid %q: %v", f[0], f[4], err)
		}
		valid, programs = valid+v, programs+n
	}
	var others []string
	for _, arch := range Archs {
		if arch != "vax" && !slices.Contains(others, samples[arch]) {
			others = append(others, samples[arch])
		}
	}
	if len(samples) != len(Archs) || len(others) != 1 {
		t.Fatalf("E14 solves %v; the summary row quotes one figure for the four targets other than VAX", samples)
	}
	candidates := map[string]float64{}
	for _, line := range strings.Split(e16, "\n") {
		if f := strings.Fields(line); len(f) >= 4 && (f[0] == "full" || f[0] == "blind") {
			candidates[f[0]], _ = strconv.ParseFloat(f[len(f)-3], 64)
		}
	}
	if candidates["full"] == 0 {
		t.Fatal("E16 has no full-likelihood candidates")
	}
	ablation := regexp.MustCompile(`solved=([0-9]+) +validated=([0-9]+/[0-9]+)`).FindAllStringSubmatch(e20, -1)
	if len(ablation) != 2 {
		t.Fatalf("E20 has %d solved/validated lines; want with and without variants", len(ablation))
	}
	row := strings.Join(strings.Fields(md), " ")
	for _, want := range []string{
		fmt.Sprintf("%s samples solved on four targets, %s on VAX", others[0], samples["vax"]),
		fmt.Sprintf("%d/%d end-to-end validation programs", valid, programs),
		fmt.Sprintf("Blind search needs %.0f× more than the full likelihood", math.Round(candidates["blind"]/candidates["full"])),
		fmt.Sprintf("solved drops %s→%s and validation %s→%s", ablation[0][1], ablation[1][1], ablation[0][2], ablation[1][2]),
	} {
		if !strings.Contains(row, want) {
			t.Errorf("%s's summary table does not read %q", recordPath, want)
		}
	}
}

// checkDivergenceNotes holds the "Notes on divergences" to the full
// shape set: its sample count, and the VAX's failed samples at Seed,
// named as "`int.shr.b_c`, `b_K`, ...".
func checkDivergenceNotes(t *testing.T, md string) {
	t.Helper()
	full, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(Seed)), Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("Under `Full: true` (%d samples", len(full)); !strings.Contains(md, want) {
		t.Errorf("%s's divergence notes do not read %q", recordPath, want)
	}
	d, err := core.Discover(srcg.NewTarget("vax"), core.Options{Seed: Seed, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	failed := d.Outcome.Failed
	words := []string{"no", "one", "two", "three", "four", "five", "six", "seven", "eight"}
	if len(failed) == 0 || len(failed) >= len(words) {
		t.Fatalf("the VAX fails %v under Full; the notes name one to eight failures", failed)
	}
	names := make([]string, len(failed))
	for i, n := range failed {
		names[i] = "`" + n + "`"
		if i > 0 {
			names[i] = "`" + strings.TrimPrefix(n, "int.shr.") + "`"
		}
	}
	for _, want := range []string{
		"the VAX fails exactly the " + words[len(failed)] + " `ashl`-based",
		"(" + strings.Join(names, ", ") + " at seed " + strconv.Itoa(Seed) + ")",
	} {
		if !strings.Contains(strings.Join(strings.Fields(md), " "), want) {
			t.Errorf("%s's divergence notes do not read %q (the VAX fails %v under Full at seed %d)", recordPath, want, failed, Seed)
		}
	}
}
