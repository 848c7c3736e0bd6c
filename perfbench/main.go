// Command perfbench is the repository benchmark: it runs one named
// workload on inputs generated from a seed, times it, checks every output
// against an oracle, and prints one JSON result line. See README.md.
//
//	perfbench --workload threshold --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20 --trace 0
//	perfbench compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow round cannot move it.
const setupRounds = 5

// outDir holds result files and trace dumps, inside the checkout.
const outDir = ".bench_build/perfbench"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain() error {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
	}
	if *name != "all" {
		return runOne(*name, *seed, cfg)
	}
	for _, n := range workloadNames() {
		if err := runOne(n, *seed, cfg); err != nil {
			return err
		}
	}
	return nil
}

// runOne runs one workload and prints its summary to standard error and
// its result line to standard output.
func runOne(name string, seed uint64, cfg runConfig) error {
	procs := runtime.GOMAXPROCS(0)
	w, err := newWorkload(name, seed, procs)
	if err != nil {
		return err
	}
	defer w.close()
	res, err := run(w, cfg)
	if err != nil {
		return err
	}
	res.Fingerprint = hostFingerprint(seed, procs, w.conns())
	if cfg.traced {
		res.Trace = 1
	}
	if err := writeResultFile(res); err != nil {
		return err
	}
	res.report(os.Stderr)
	line, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string { return []string{"threshold", "mobility", "paper", "query"} }

func newWorkload(name string, seed uint64, procs int) (workload, error) {
	switch name {
	case "threshold":
		return newThreshold(seed, procs), nil
	case "mobility":
		return newMobility(seed, procs), nil
	case "paper":
		return newPaper(seed, procs), nil
	case "query":
		return newQuery(seed, procs), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the contract fields of the printed line
// plus what the result file keeps for the compare step.
type result struct {
	Workload    string            `json:"workload"`
	Trace       int               `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Passes      int               `json:"passes"`
	Notes       []string          `json:"notes,omitempty"`
}

// line is the JSON object printed as the last line of standard output.
func (r *result) line() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// report prints the human-readable summary: every metric by name with
// its unit, the failure share, and the notes.
func (r *result) report(w *os.File) {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d trace=%d passes=%d cpu=%q procs=%d go=%s workers=%d conns=%d\n",
		r.Workload, r.Fingerprint.Seed, r.Trace, r.Passes, r.Fingerprint.CPU, r.Fingerprint.NumCPU,
		r.Fingerprint.GoVersion, r.Fingerprint.Workers, r.Fingerprint.Conns)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "  %-40s %14.6g ratio (%d of %d)\n", "fail_frac", safeDiv(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	fmt.Fprintf(w, "  correct=%t\n", r.Correct)
}

func writeResultFile(r *result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-s%d-t%d.json", r.Workload, r.Fingerprint.Seed, r.Trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// dumpTrace writes the traced run's spans where cmd/traceview can read
// them.
func dumpTrace(t *obs.Tracer, workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := t.DumpJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareMain prints per-metric changes from result file A to result file
// B, refusing results whose fingerprints differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var rs [2]result
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", p, err)
			return 2
		}
	}
	if err := mismatch(rs[0], rs[1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	names := make([]string, 0, len(rs[0].Metrics))
	for k := range rs[0].Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		a, b := rs[0].Metrics[k], rs[1].Metrics[k]
		fmt.Printf("%-40s %14.6g → %14.6g %-8s %+.2f%%\n", k, a.Value, b.Value, a.Unit, 100*safeDiv(b.Value-a.Value, a.Value))
	}
	return 0
}

// mismatch reports why two results may not be compared, or nil.
func mismatch(a, b result) error {
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("different runs: %s/trace=%d vs %s/trace=%d", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	if a.Fingerprint != b.Fingerprint {
		return errors.New("host fingerprints differ:\n  " + a.Fingerprint.String() + "\n  " + b.Fingerprint.String())
	}
	return nil
}
