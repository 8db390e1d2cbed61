// Command hdsmtbench is the repository's benchmark: one process that runs
// one named workload for a fixed time, checks every output against pinned
// values, and prints its metrics as one JSON object on the last line of
// standard output.
//
//	hdsmtbench --workload exact-cells --seed 1 --seconds 20 --trace 0
//
// Workloads (see METRICS.md for why each exists and what it measures):
//
//	exact-cells    one op = sim.Run over five cells at a 100k budget
//	sampled-cells  one op = sampled sim.Run over the BENCH_PR10 basket
//	daemon-replay  one op = a seeded warm/cold job fleet replayed by two
//	               closed-loop clients against an in-process hdsmtd
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// records spans around every call it makes into a layer, writes them to
// .bench_build/spans/, and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many cold set-ups (each in a fresh child process, so
// process-level caches start empty) the run times besides its own; setup_s
// is the median of all of them.
const setupRepeats = 20

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opResult is what one timed op did.
type opResult struct {
	// jobs is the number of jobs the op completed (cells or fleet jobs).
	jobs int
	// latencies holds each job's latency in milliseconds.
	latencies []float64
	// committed counts the instructions the op's results report as
	// committed; covered counts the measured stream of each result's
	// leading thread (the whole sampled stream, fast-forward included).
	committed, covered uint64
}

// benchWorkload is one named benchmark workload. setup runs once, before any
// timing; prepare runs untimed before every op; op is the timed unit and
// returns an error when its outputs fail their check.
type benchWorkload interface {
	setup() error
	warmup() error
	prepare() error
	op(tr *tracer) (opResult, error)
	close()
}

func newWorkload(name string, seed int64) (benchWorkload, error) {
	switch name {
	case "exact-cells":
		return newExactCells(seed), nil
	case "sampled-cells":
		return newSampledCells(seed), nil
	case "daemon-replay":
		return newDaemonReplay(seed, workDir()), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want exact-cells, sampled-cells or daemon-replay)", name)
}

// workDir is where the run may write: .bench_build under the current
// directory, which is the checkout root.
func workDir() string { return ".bench_build" }

func main() {
	name := flag.String("workload", "", "workload: exact-cells, sampled-cells or daemon-replay")
	seed := flag.Int64("seed", 1, "workload seed (drives the daemon fleet and the cell order)")
	seconds := flag.Int("seconds", 10, "seconds of timed ops")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "time one cold set-up and print it (used by the run itself)")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traceFlag == 1, *setupOnly); err != nil {
		fmt.Fprintln(os.Stderr, "hdsmtbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced, setupOnly bool) error {
	if err := os.MkdirAll(workDir(), 0o755); err != nil {
		return err
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	defer w.close()

	if setupOnly {
		start := time.Now()
		if err := w.setup(); err != nil {
			return err
		}
		fmt.Printf("setup_s %.9f\n", time.Since(start).Seconds())
		return nil
	}
	if traced {
		return runTraced(name, seed, seconds, w)
	}

	start := time.Now()
	if err := w.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(start).Seconds()}
	for i := 0; i < setupRepeats; i++ {
		s, err := childSetup(name, seed)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	if err := w.warmup(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	ops, err := timedOps(w, seconds, nil)
	if err != nil {
		return err
	}
	rep := report{Metrics: endToEnd(ops, median(setups))}
	rep.Attempted = len(ops)
	for _, o := range ops {
		if o.err != nil {
			rep.Failed++
			fmt.Fprintln(os.Stderr, "hdsmtbench: op failed:", o.err)
		}
	}
	rep.Correct = rep.Failed == 0
	return printReport(rep)
}

// childSetup times one cold set-up of the workload in a fresh process.
func childSetup(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 || f[0] != "setup_s" {
		return 0, fmt.Errorf("set-up child printed %q", out)
	}
	return strconv.ParseFloat(f[1], 64)
}

// timedOp is one op as the run saw it.
type timedOp struct {
	opResult
	wallS, cpuS float64
	// heapMB is the Go heap still live once the op is over: what the op's
	// state (on daemon-replay, a daemon holding the whole fleet) retains.
	heapMB float64
	err    error
}

// timedOps runs ops until seconds have elapsed (at least one op). Each
// op's untimed preparation (the workload's prepare step and a garbage
// collection) and the collection that measures its live heap afterwards
// are excluded from the elapsed time.
func timedOps(w benchWorkload, seconds int, tr func(i int) *tracer) ([]timedOp, error) {
	budget := time.Duration(seconds) * time.Second
	var elapsed time.Duration
	var ops []timedOp
	for i := 0; len(ops) == 0 || elapsed < budget; i++ {
		if err := w.prepare(); err != nil {
			return nil, fmt.Errorf("preparing op %d: %w", i, err)
		}
		// Start every op from a collected heap, so one op's garbage
		// neither slows the next nor piles onto the peak resident size.
		runtime.GC()
		var t *tracer
		if tr != nil {
			t = tr(i)
		}
		cpu0 := cpuSeconds()
		t0 := time.Now()
		res, err := w.op(t)
		wall := time.Since(t0)
		op := timedOp{opResult: res, wallS: wall.Seconds(), cpuS: cpuSeconds() - cpu0, err: err}
		op.heapMB = liveHeapMB()
		ops = append(ops, op)
		elapsed += wall
	}
	return ops, nil
}

// endToEnd turns timed ops into the end-to-end metrics. Rates are medians
// of per-op rates, and latency percentiles are medians of per-op
// percentiles: a simulator workload's run completes only a few dozen
// cells, and the median over ops of each op's slowest cell is steadier
// than a percentile pooled over so few.
func endToEnd(ops []timedOp, setupS float64) map[string]metric {
	var jobsPerS, mips, covered, cpuMS, heapMB, p50, p90 []float64
	for _, o := range ops {
		jobsPerS = append(jobsPerS, float64(o.jobs)/o.wallS)
		mips = append(mips, float64(o.committed)/o.wallS/1e6)
		covered = append(covered, float64(o.covered)/o.wallS/1e6)
		cpuMS = append(cpuMS, o.cpuS*1e3)
		heapMB = append(heapMB, o.heapMB)
		p50 = append(p50, percentile(o.latencies, 0.50))
		p90 = append(p90, percentile(o.latencies, 0.90))
	}
	return map[string]metric{
		"jobs_per_s":    {median(jobsPerS), "1/s"},
		"mips":          {median(mips), "M/s"},
		"covered_mips":  {median(covered), "M/s"},
		"job_p50_ms":    {median(p50), "ms"},
		"job_p90_ms":    {median(p90), "ms"},
		"cpu_ms_per_op": {median(cpuMS), "ms"},
		"setup_s":       {setupS, "s"},
		"live_heap_mb":  {median(heapMB), "MB"},
	}
}

func printReport(rep report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
