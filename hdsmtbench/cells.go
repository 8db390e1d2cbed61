package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/mapping"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

// The exact-cells workload: five cells at a fixed 100k budget with a 10k
// warm-up. The first three are the perf basket (ILP, MEM, MIX on the
// flagship heterogeneous machine); the 4- and 6-thread cells keep
// thread-count effects and the monolithic fetch policy in the op.
const (
	exactBudget = 100_000
	exactWarmup = 10_000
)

// The sampled-cells workload runs BENCH_PR10's sampled pass: the basket
// at a 600k measured budget with the default sampling parameters and no
// warm-up, under HEUR mappings.
const sampledBudget = 600_000

// cellSpec names one simulation cell. Workload names are unique across
// each workload's cells, so they key the pinned outputs.
type cellSpec struct{ config, workload string }

var (
	exactCellSpecs = []cellSpec{
		{"2M4+2M2", "2W1"}, {"2M4+2M2", "2W4"}, {"2M4+2M2", "2W7"},
		{"3M4+2M2", "4W6"}, {"M8", "6W3"},
	}
	basketCellSpecs = exactCellSpecs[:3]
)

// exactPins are the digests of each exact cell's cycles, per-thread
// committed counts and activity counters (see exactDigest).
var exactPins = map[string]string{
	"2W1": "875d7dde9d688623", // 39977 cycles, committed [100000 50886]
	"2W4": "897b8540219fc1af", // 443329 cycles, committed [29379 100000]
	"2W7": "6cdc26e306696b78", // 41685 cycles, committed [100000 7937]
	"4W6": "df17416754158d4c", // 62168 cycles, committed [100000 6182 16897 3273]
	"6W3": "b080d80d07cdf2d5", // 208962 cycles, committed [91714 37505 12584 100000 44452 79432]
}

// sampledPin is one basket cell of BENCH_PR10.json: the sampled estimate
// (IPC, 95% margin, units) and the exact IPC it estimates.
type sampledPin struct {
	ipc, moe float64
	units    int
	exactIPC float64
}

var sampledPins = map[string]sampledPin{
	"2W1": {5.221461846065053, 0.1386575132685765, 300, 5.298296795260817},
	"2W4": {0.2877446856079352, 0.007562978045592453, 300, 0.28862801180962677},
	"2W7": {2.5559658083144843, 0.09857081448355108, 300, 2.5774744368379965},
}

// cell is a resolved cellSpec: its machine, workload and mapping, with the
// workload's programs built.
type cell struct {
	cellSpec
	cfg config.Microarch
	w   workload.Workload
	m   mapping.Mapping
}

// resolveCells builds every cell's programs (sim.Specs) and mapping
// (sim.DefaultMapping: HEUR profiling for heterogeneous machines), in the
// order the seed rotates them to.
func resolveCells(specs []cellSpec, seed int64) ([]cell, error) {
	out := make([]cell, 0, len(specs))
	for i := range specs {
		s := specs[(i+int(uint64(seed)%uint64(len(specs))))%len(specs)]
		cfg, err := config.Parse(s.config)
		if err != nil {
			return nil, err
		}
		w, err := workload.ByName(s.workload)
		if err != nil {
			return nil, err
		}
		if _, err := sim.Specs(w); err != nil {
			return nil, err
		}
		m, err := sim.DefaultMapping(cfg, w)
		if err != nil {
			return nil, err
		}
		out = append(out, cell{cellSpec: s, cfg: cfg, w: w, m: m})
	}
	return out, nil
}

// exactDigest fingerprints the outputs the exact-cells check pins.
func exactDigest(r core.Results) string {
	b, err := json.Marshal(struct {
		Cycles    uint64
		Committed []uint64
		Activity  core.Activity
	}{r.Cycles, r.Committed, r.Activity})
	if err != nil {
		panic(err) // plain integer structs always encode
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checkExact compares one exact cell's outputs with its pinned digest.
func checkExact(w string, r core.Results) error {
	if got, want := exactDigest(r), exactPins[w]; got != want {
		return fmt.Errorf("exact cell %s: digest %s, pinned %s", w, got, want)
	}
	return nil
}

// checkSampled compares one sampled cell with BENCH_PR10: the estimate,
// its margin and unit count must match bit for bit, and the exact IPC
// must lie inside the reported margin.
func checkSampled(w string, r core.Results) error {
	p, ok := sampledPins[w]
	if !ok {
		return fmt.Errorf("sampled cell %s: no pinned values", w)
	}
	if r.Sampled == nil {
		return fmt.Errorf("sampled cell %s: result carries no sample summary", w)
	}
	s := r.Sampled
	switch {
	case r.IPC != p.ipc:
		return fmt.Errorf("sampled cell %s: IPC %v, pinned %v", w, r.IPC, p.ipc)
	case s.IPCMoE != p.moe:
		return fmt.Errorf("sampled cell %s: margin %v, pinned %v", w, s.IPCMoE, p.moe)
	case s.Units != p.units:
		return fmt.Errorf("sampled cell %s: %d units, pinned %d", w, s.Units, p.units)
	case math.Abs(p.exactIPC-r.IPC) > s.IPCMoE:
		return fmt.Errorf("sampled cell %s: exact IPC %v outside %v ± %v", w, p.exactIPC, r.IPC, s.IPCMoE)
	}
	return nil
}

// ipcErrPct is the worst relative error of sampled estimates against
// BENCH_PR10's exact IPCs, in percent.
func ipcErrPct(results map[string]core.Results) float64 {
	worst := 0.0
	for w, r := range results {
		p := sampledPins[w]
		worst = math.Max(worst, 100*math.Abs(r.IPC-p.exactIPC)/p.exactIPC)
	}
	return worst
}

func threadSum(xs []uint64) uint64 {
	var n uint64
	for _, x := range xs {
		n += x
	}
	return n
}

// leader is the leading thread's count: a run ends when its leading
// thread has retired the budget, and a sampled run's coverage
// (SampleSummary.Covered, BENCH_PR10's covered_per_thread) counts the
// leader's stream, the co-runners fast-forwarding in proportion.
func leader(xs []uint64) uint64 {
	var n uint64
	for _, x := range xs {
		n = max(n, x)
	}
	return n
}

// cellsWorkload runs one simulation per cell per op.
type cellsWorkload struct {
	specs  []cellSpec
	seed   int64
	opt    sim.Options
	warmOp sim.Options // the untimed warm-up pass's options
	check  func(w string, r core.Results) error
	cells  []cell
}

func newExactCells(seed int64) *cellsWorkload {
	opt := sim.Options{Budget: exactBudget, Warmup: exactWarmup}
	return &cellsWorkload{specs: exactCellSpecs, seed: seed, opt: opt, warmOp: opt, check: checkExact}
}

func newSampledCells(seed int64) *cellsWorkload {
	sp := core.DefaultSampleParams()
	return &cellsWorkload{
		specs: basketCellSpecs, seed: seed,
		opt: sim.Options{Budget: sampledBudget, Sample: sp},
		// A tenth of the budget warms the same code paths in well under a
		// second; a full untimed pass would cost as much as a timed op.
		warmOp: sim.Options{Budget: sampledBudget / 10, Sample: sp},
		check:  checkSampled,
	}
}

func (c *cellsWorkload) setup() error {
	cells, err := resolveCells(c.specs, c.seed)
	c.cells = cells
	return err
}

func (c *cellsWorkload) warmup() error {
	for _, cl := range c.cells {
		if _, err := sim.Run(cl.cfg, cl.w, cl.m, c.warmOp); err != nil {
			return err
		}
	}
	return nil
}

func (c *cellsWorkload) prepare() error { return nil }
func (c *cellsWorkload) close()         {}

func (c *cellsWorkload) op(tr *tracer) (opResult, error) {
	var res opResult
	root := tr.start("op", 0)
	defer tr.end(root)
	for _, cl := range c.cells {
		id := tr.start("sim.Run/"+cl.w.Name, root)
		t0 := time.Now()
		r, err := sim.Run(cl.cfg, cl.w, cl.m, c.opt)
		lat := time.Since(t0)
		tr.end(id)
		if err != nil {
			return res, fmt.Errorf("%s/%s: %w", cl.config, cl.workload, err)
		}
		if err := c.check(cl.w.Name, r); err != nil {
			return res, err
		}
		res.jobs++
		res.latencies = append(res.latencies, lat.Seconds()*1e3)
		res.committed += threadSum(r.Committed)
		if r.Sampled != nil {
			res.covered += r.Sampled.Covered
		} else {
			res.covered += leader(r.Committed)
		}
	}
	return res, nil
}
