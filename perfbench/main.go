package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: its metrics (end-to-end ones
// untraced, per-layer ones traced), the operations attempted and
// failed (frames stepped; a failed Step or campaign run), and every
// correctness problem found.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// check records a correctness problem when err is non-nil.
func (o *outcome) check(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	fpDir   string // where fingerprints of this binary are recorded
}

// budget is the given share of the run's measuring time.
func (rc runConfig) budget(share float64) time.Duration {
	return time.Duration(rc.seconds * share * float64(time.Second))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"clean":      func(rc runConfig) (*outcome, error) { return runSessionWorkload("clean", rc) },
	"megapop":    func(rc runConfig) (*outcome, error) { return runSessionWorkload("megapop", rc) },
	"ebn0-sweep": runCampaignWorkload,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: clean, megapop or ebn0-sweep")
	seed := fs.Int64("seed", 1, "workload seed; overrides the preset or campaign seed")
	seconds := fs.Float64("seconds", 30, "measuring time of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	commit := fs.String("commit", "unknown", "commit the binary was built from, for the host record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	// The load comes from this one process; a width above the CPUs the
	// process may run on measures oversubscription, not the simulator.
	width, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	if width > ncpu {
		fmt.Fprintf(stderr, "perfbench: GOMAXPROCS=%d exceeds the %d CPUs available; refusing to measure\n", width, ncpu)
		return 2
	}
	exe, err := exeDigest()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: num_cpu=%d gomaxprocs=%d go=%s commit=%s binary=%s\n",
		ncpu, width, runtime.Version(), *commit, exe)
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)

	rc := runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		fpDir:   filepath.Join(".bench_build", "fingerprints", exe),
	}
	out, err := wl(rc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// exeDigest identifies the running binary, so fingerprints recorded by
// one build are only ever compared against runs of the same build.
func exeDigest() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locate binary: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("hash binary: %w", err)
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:6]), nil
}
