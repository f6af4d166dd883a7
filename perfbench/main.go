// Command perfbench is the repository benchmark. For one workload it
// generates seeded inputs, drives the mithrilsim binary against them,
// checks every output, and prints the workload's metrics as one JSON
// line (the last line of standard output). A human-readable report goes
// to standard error.
//
// Usage (from the repository root, after building mithrilsim):
//
//	perfbench -root . -bin PATH/mithrilsim --workload sweep-fleet --seed 1 --seconds 50 --trace 0
//
// perfbench/run.sh builds both binaries and runs this with the right
// -root and -bin. See perfbench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its untraced (end-to-end) run.
var workloads = map[string]func(ctx context.Context, b *bench) error{
	"sweep-fleet": sweepFleet,
	"serve-mix":   serveMix,
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one benchmark run: where things are, what to run, and
// what has been measured and checked so far.
type bench struct {
	root     string // checkout root (holds testdata/ and .bench_build/)
	bin      string // mithrilsim binary
	binHash  string // sha256 of both binaries, keys cached checks and inputs
	cache    string // cross-run cache directory under .bench_build
	work     string // this run's scratch directory under .bench_build
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	nproc    int

	spans *spanLog

	attempted, failed int
	problems          []string // failed checks, for the report
	metrics           map[string]metric
	notes             []string // extra report lines (stderr only)
}

// set records a metric. A value that could not be measured (no samples)
// is a failed check, reported as 0 so the result line stays valid JSON.
func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.problem(fmt.Errorf("metric %s has no samples", name))
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// note adds a line to the stderr report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation; a non-nil err marks it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problem(err)
	}
}

// problem records a failed check without counting an operation.
func (b *bench) problem(err error) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, err.Error())
	}
}

func main() { os.Exit(run()) }

func run() int {
	root := flag.String("root", ".", "repository checkout root")
	bin := flag.String("bin", "", "mithrilsim binary built from the checkout")
	workload := flag.String("workload", "", "workload: sweep-fleet or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Float64("seconds", 20, "how long the timed phase measures")
	traceFlag := flag.Int("trace", 0, "1: traced run printing the per-layer metrics instead of the end-to-end ones")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok || *bin == "" || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -bin and --workload one of %v, --seconds > 0\n", workloadNames())
		return 2
	}
	b, err := newBench(*root, *bin, *workload, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every run must end within three minutes; the context bounds
	// every child process the run starts.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	if err := checkGoldens(ctx, b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: golden check: %v\n", err)
		return 1
	}
	if b.trace {
		err = traced(ctx, b)
	} else {
		err = drive(ctx, b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	if b.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation completed\n", b.workload)
		return 1
	}
	if b.trace {
		if err := b.spans.write(filepath.Join(b.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))); err != nil {
			b.problem(fmt.Errorf("writing spans: %w", err))
		}
	}
	b.report(os.Stderr)
	out, err := json.Marshal(result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newBench(root, bin, workload string, seed uint64, seconds float64, trace bool) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	bin, err = filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	// Cached inputs and checks depend on the program and on this
	// benchmark's generators, so they are keyed by both binaries.
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, path := range []string{bin, self} {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("hashing %s: %w", path, err)
		}
		h.Write(data)
	}
	build := filepath.Join(root, ".bench_build")
	b := &bench{
		root:     root,
		bin:      bin,
		binHash:  hex.EncodeToString(h.Sum(nil)[:8]),
		cache:    filepath.Join(build, "cache"),
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds * float64(time.Second)),
		trace:    trace,
		nproc:    runtime.NumCPU(),
		metrics:  map[string]metric{},
	}
	b.spans = newSpanLog(fmt.Sprintf("%s-seed%d-%d", workload, seed, time.Now().UnixNano()))
	if err := os.MkdirAll(b.cache, 0o755); err != nil {
		return nil, err
	}
	b.work, err = os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return b, nil
}

// checkGoldens runs the golden-scale figure9, figure10 and safety specs
// and requires their output to match testdata/golden_*.txt byte for byte.
// One pass per build is cached under .bench_build/cache.
func checkGoldens(ctx context.Context, b *bench) error {
	marker := filepath.Join(b.cache, "goldens-ok-"+b.binHash)
	if _, err := os.Stat(marker); err == nil {
		return nil
	}
	for _, name := range []string{"figure9", "figure10", "safety"} {
		golden := filepath.Join(b.root, "testdata", "golden_"+name+".txt")
		r, err := runCLI(ctx, b.bin, "diff", name+".golden", golden, "-jobs", fmt.Sprint(b.nproc))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !strings.Contains(string(r.stdout), "rows match") {
			return fmt.Errorf("%s: unexpected diff output %q", name, r.stdout)
		}
	}
	return os.WriteFile(marker, nil, 0o644)
}

// report writes the human-readable summary: host, checks, metrics, notes
// and per-layer self time.
func (b *bench) report(w io.Writer) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "perfbench %s seed=%d trace=%v\n", b.workload, b.seed, b.trace)
	fmt.Fprintf(bw, "host: %s\n", hostLine())
	fmt.Fprintf(bw, "operations: attempted=%d failed=%d fail_ratio=%.4f\n", b.attempted, b.failed, float64(b.failed)/float64(b.attempted))
	for _, p := range b.problems {
		fmt.Fprintf(bw, "CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(bw, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range b.notes {
		fmt.Fprintf(bw, "  %s\n", n)
	}
	if self := b.spans.selfByLayer(); len(self) > 0 {
		fmt.Fprintf(bw, "self time by layer (run %s, %d spans):\n", b.spans.run, len(b.spans.spans))
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(bw, "  %-12s %10.3f s\n", l, self[l].Seconds())
		}
	}
}

// hostLine describes the machine a result was measured on.
func hostLine() string {
	model, online := "unknown", 0
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			k, v, ok := strings.Cut(line, ":")
			switch k = strings.TrimSpace(k); {
			case ok && k == "processor":
				online++
			case ok && k == "model name" && model == "unknown":
				model = strings.TrimSpace(v)
			}
		}
	}
	// nproc counts the CPUs this process may run on (one when run.sh
	// pins it); online counts the machine's.
	return fmt.Sprintf("nproc=%d online=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), online, runtime.GOMAXPROCS(0), runtime.Version(), model)
}
