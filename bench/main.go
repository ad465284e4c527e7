// Command bench is the repository benchmark. It times srcg.Discover on
// the five simulated targets under four workloads, checks every
// discovered machine description against golden.json, and reports the
// end-to-end metrics (plus, with --trace 1, the per-layer metrics) named
// in BENCHMARK.json. README.md is the metric dictionary.
//
// From the repository root:
//
//	bash bench/run.sh                          # every workload, each in a child process
//	bash bench/run.sh --workload discover-serial --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//	bash bench/run.sh -update-golden bench/golden.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number. Timings carry their sample count and
// quartiles; counts and sizes carry only the value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

func timing(s summary, unit string) metric {
	return metric{Value: s.med, Unit: unit, N: s.n, Q1: s.q1, Q3: s.q3}
}

// record is one workload run, stamped with the machine and settings that
// produced it. -out appends records as JSON Lines; -compare reads them.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Stamp     stamp             `json:"stamp"`
	Reps      map[string]int    `json:"reps"`   // timed discoveries per target
	Golden    bool              `json:"golden"` // checked against golden.json, not validation only
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type stamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Date       string `json:"date"`
}

func newStamp() stamp {
	return stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPUModel:   cpuModel(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is the last line of a workload run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type settings struct {
	seed    int64
	seconds int
	trace   bool
	out     string
	prof    profiles
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "discovery seed: 1 is the default, 2 is held out for claims")
	secs := fs.Int("seconds", 25, "how long one workload run measures, set-up included, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced run and layer replays and reports per-layer metrics")
	out := fs.String("out", "", "append each run's stamped record to this JSON Lines file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the traced run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile after the traced run to this file")
	compare := fs.Bool("compare", false, "compare two record files: -compare PARENT CHANGE (FILE or FILE#SET)")
	updateGolden := fs.String("update-golden", "", "rediscover the golden seeds and write golden.json to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *updateGolden != "":
		if err := writeGolden(*updateGolden); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "bench: --trace takes 0 or 1")
		return 2
	case *secs < 1:
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1")
		return 2
	case *name == "" && (*cpuprofile != "" || *memprofile != ""):
		fmt.Fprintln(stderr, "bench: profiles need --workload")
		return 2
	}
	cfg := settings{seed: *seed, seconds: *secs, trace: *trace == 1, out: *out,
		prof: profiles{cpu: *cpuprofile, mem: *memprofile}}
	if *name == "" {
		return runSuite(cfg, stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	return runWorkload(w, cfg, stdout, stderr)
}

// runWorkload runs one workload in this process and prints a table, the
// stamped record, and the result line, in that order.
func runWorkload(w workload, cfg settings, stdout, stderr io.Writer) int {
	chk, err := newChecker(cfg.seed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	r := &runner{workload: w, seed: cfg.seed, chk: chk, heap: startHeapPeak()}
	t := r.timed(time.Duration(cfg.seconds) * time.Second)
	// The sampler allocates once per collection; stopping it here keeps
	// that out of the traced run's allocation counts.
	r.heap.stop()
	e2e, raw := t.endToEnd()
	rec := record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Stamp: newStamp(), Reps: map[string]int{}, Golden: chk.golden != nil,
		Metrics: map[string]metric{},
	}
	for arch, smp := range t.byTarget {
		rec.Reps[arch] = len(smp.obs)
	}
	rt := t.runtimeLayers()
	reported := e2e
	if cfg.trace {
		layers, err := r.traced(raw["discover_wall_s"].Value, cfg.prof)
		if err != nil {
			fmt.Fprintln(stderr, "bench: traced run:", err)
			return 1
		}
		for k, v := range rt {
			layers[k] = v
		}
		reported = layers
	}
	for _, m := range []map[string]metric{e2e, raw, rt, reported} {
		for k, v := range m {
			rec.Metrics[k] = v
		}
	}
	rec.Correct, rec.Attempted, rec.Failed = chk.failed == 0, chk.attempted, chk.failed
	for _, p := range chk.problems {
		fmt.Fprintln(stderr, "bench: FAIL", p)
	}

	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.out != "" {
		if err := appendLine(cfg.out, line); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printTable(stdout, rec)
	fmt.Fprintf(stdout, "%s\n", line)
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metric{}}
	for k, v := range reported {
		res.Metrics[k] = metric{Value: v.Value, Unit: v.Unit}
	}
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !rec.Correct {
		return 1
	}
	return 0
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printTable(w io.Writer, rec record) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v golden=%v reps=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Golden, rec.Reps)
	fmt.Fprintf(w, "# %d CPUs, GOMAXPROCS=%d, %s, %s\n",
		rec.Stamp.NumCPU, rec.Stamp.GOMAXPROCS, rec.Stamp.Go, rec.Stamp.CPUModel)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Metrics[k]
		fmt.Fprintf(w, "%-38s %14.6g %-10s", k, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d IQR=[%.6g, %.6g]", m.N, m.Q1, m.Q3)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# correct=%v attempted=%d failed=%d\n", rec.Correct, rec.Attempted, rec.Failed)
}

// runSuite runs every workload in sequence, each in a fresh child process
// of this one, so one workload's heap and caches never reach the next.
func runSuite(cfg settings, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		args := []string{"--workload", w.name, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", trace}
		if cfg.out != "" {
			args = append(args, "-out", cfg.out)
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		err := cmd.Run()
		// Keep the child's table and record; drop its result line.
		text := strings.TrimRight(buf.String(), "\n")
		if i := strings.LastIndexByte(text, '\n'); i >= 0 {
			text = text[:i]
		}
		fmt.Fprintf(stdout, "%s\n\n", text)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}
