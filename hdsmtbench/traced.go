package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"hdsmt/internal/branch"
	"hdsmt/internal/cache"
	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/isa"
	"hdsmt/internal/obslog"
	"hdsmt/internal/sim"
	"hdsmt/internal/trace"
	"hdsmt/internal/workload"
)

// Sizes of the traced run's layer probes.
const (
	streamProbeInsts = 300_000 // per basket thread, for trace, cache and branch replays
	buildProbeReps   = 3       // builds per basket benchmark
	newProbeReps     = 10      // core.New calls per exact cell
	corePasses       = 3       // exact passes timed through core.New + Processor.Run
	engineWarmRounds = 5       // warm resubmissions of each distinct engine request
	serverReplays    = 40      // traced fleet replays
	fleetRunReps     = 20      // direct Processor.Run timings per fleet simulation
)

// tracedRun accumulates the per-layer metrics and the probes' own checks.
type tracedRun struct {
	seed      int64
	tr        *tracer
	m         map[string]metric
	attempted int
	failed    int
}

func (t *tracedRun) set(name string, v float64, unit string) { t.m[name] = metric{v, unit} }

// check counts one checked probe op, reporting a failure.
func (t *tracedRun) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "hdsmtbench: traced check failed:", err)
	}
}

// runTraced is the traced run: the same workload's ops, alternately with
// and without spans (their difference is the tracing overhead), then one
// probe per layer, each timing the benchmark's own calls into that
// layer's public functions. Spans go to .bench_build/spans/.
func runTraced(name string, seed int64, seconds int, w benchWorkload) error {
	t := &tracedRun{seed: seed, tr: newTracer(), m: map[string]metric{}}

	// Cold probes come first: nothing in this process has built a program
	// or profiled a benchmark yet.
	if err := t.probeColdSetup(); err != nil {
		return err
	}
	if err := w.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := w.warmup(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	ops, err := timedOps(w, seconds, func(i int) *tracer {
		if i%2 == 1 {
			return t.tr
		}
		return nil
	})
	if err != nil {
		return err
	}
	var plain, traced []float64
	for i, o := range ops {
		t.check(o.err)
		if i%2 == 1 {
			traced = append(traced, o.wallS)
		} else {
			plain = append(plain, o.wallS)
		}
	}
	overhead := 0.0
	if len(traced) > 0 {
		overhead = 100 * (median(traced) - median(plain)) / median(plain)
	}
	t.set("tracing.overhead_pct", overhead, "pct")

	probes := []func() error{t.probeTrace, t.probeCache, t.probeBranch, t.probeCore, t.probeSampled, t.probeEngine, t.probeServer}
	for _, p := range probes {
		if err := p(); err != nil {
			return err
		}
	}
	t.set("tracing.spans", float64(t.tr.len()), "count")
	t.set("process.peak_rss_mb", peakRSSMB(), "MB")

	path := filepath.Join(workDir(), "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := t.tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return printReport(report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: t.m})
}

// basketSpecs returns each basket cell's per-thread specifications.
func basketSpecs() (map[string][]core.ThreadSpec, error) {
	out := map[string][]core.ThreadSpec{}
	for _, c := range basketCellSpecs {
		w, err := workload.ByName(c.workload)
		if err != nil {
			return nil, err
		}
		specs, err := sim.Specs(w)
		if err != nil {
			return nil, err
		}
		out[c.workload] = specs
	}
	return out, nil
}

// probeColdSetup times bench.Benchmark.Build for every basket benchmark
// and a cold sim.HeuristicMapping for every heterogeneous exact cell.
func (t *tracedRun) probeColdSetup() error {
	root := t.tr.start("probe.setup", 0)
	defer t.tr.end(root)
	seen := map[string]bool{}
	for _, c := range basketCellSpecs {
		bs, err := workload.MustByName(c.workload).Resolve()
		if err != nil {
			return err
		}
		for _, b := range bs {
			if seen[b.Name] {
				continue
			}
			seen[b.Name] = true
			for i := 0; i < buildProbeReps; i++ {
				id := t.tr.start("bench.Build", root)
				_, err := b.Build(0)
				t.tr.end(id)
				if err != nil {
					return err
				}
			}
		}
	}
	t.set("trace.build_ms", median(t.tr.durations("bench.Build"))*1e3, "ms")

	for _, c := range exactCellSpecs {
		cfg := config.MustParse(c.config)
		if cfg.Monolithic {
			continue
		}
		id := t.tr.start("sim.HeuristicMapping", root)
		_, err := sim.HeuristicMapping(cfg, workload.MustByName(c.workload))
		t.tr.end(id)
		if err != nil {
			return err
		}
	}
	d := t.tr.durations("sim.HeuristicMapping")
	t.set("mapping.heur_ms", t.tr.total("sim.HeuristicMapping")/float64(len(d))*1e3, "ms")
	return nil
}

// probeTrace times Stream.NextInto and Stream.Advance (no-op ControlFunc)
// over every basket thread's program.
func (t *tracedRun) probeTrace() error {
	specs, err := basketSpecs()
	if err != nil {
		return err
	}
	root := t.tr.start("probe.trace", 0)
	defer t.tr.end(root)
	var n uint64
	noop := func(isa.Class, uint64, uint64, bool) {}
	for _, c := range basketCellSpecs {
		for _, s := range specs[c.workload] {
			st := trace.NewStream(s.Program, s.Seed, s.DataBase)
			var in isa.Instruction
			id := t.tr.start("trace.NextInto", root)
			for i := 0; i < streamProbeInsts; i++ {
				st.NextInto(&in)
			}
			t.tr.end(id)

			st = trace.NewStream(s.Program, s.Seed, s.DataBase)
			id = t.tr.start("trace.Advance", root)
			st.Advance(streamProbeInsts, noop)
			t.tr.end(id)
			n += streamProbeInsts
		}
	}
	t.set("trace.next_ns_per_inst", t.tr.total("trace.NextInto")*1e9/float64(n), "ns")
	t.set("trace.advance_ns_per_inst", t.tr.total("trace.Advance")*1e9/float64(n), "ns")
	return nil
}

// access is one replayed memory-hierarchy access.
type access struct {
	kind isa.Class // isa.Load, isa.Store, or anything else for an instruction fetch
	addr uint64
}

// cacheLine is the granularity at which a thread's fetch stream is
// replayed: one I-side access per line entered, not per instruction.
const cacheLine = 64

// basketAccesses records each basket cell's fetch, load and store address
// stream, threads interleaved instruction by instruction.
func basketAccesses(specs map[string][]core.ThreadSpec) map[string][]access {
	out := map[string][]access{}
	for _, c := range basketCellSpecs {
		ts := specs[c.workload]
		streams := make([]*trace.Stream, len(ts))
		lastLine := make([]uint64, len(ts))
		for i, s := range ts {
			streams[i] = trace.NewStream(s.Program, s.Seed, s.DataBase)
			lastLine[i] = ^uint64(0)
		}
		var acc []access
		var in isa.Instruction
		for k := 0; k < streamProbeInsts; k++ {
			for i, st := range streams {
				st.NextInto(&in)
				if line := in.PC / cacheLine; line != lastLine[i] {
					lastLine[i] = line
					acc = append(acc, access{isa.Nop, in.PC})
				}
				if in.Class == isa.Load || in.Class == isa.Store {
					acc = append(acc, access{in.Class, in.EffAddr})
				}
			}
		}
		out[c.workload] = acc
	}
	return out
}

// probeCache replays the basket's address streams through a fresh
// cache.NewHierarchy per cell.
func (t *tracedRun) probeCache() error {
	specs, err := basketSpecs()
	if err != nil {
		return err
	}
	streams := basketAccesses(specs)
	root := t.tr.start("probe.cache", 0)
	defer t.tr.end(root)
	var n int
	var l1d, l2 cache.Stats
	for _, c := range basketCellSpecs {
		acc := streams[c.workload]
		h := cache.NewHierarchy()
		id := t.tr.start("cache.Hierarchy", root)
		for i, a := range acc {
			switch a.kind {
			case isa.Load:
				h.Load(a.addr, uint64(i))
			case isa.Store:
				h.Store(a.addr, uint64(i))
			default:
				h.Fetch(a.addr, uint64(i))
			}
		}
		t.tr.end(id)
		n += len(acc)
		d, s := h.L1D.Stats(), h.L2.Stats()
		l1d.Accesses += d.Accesses
		l1d.Misses += d.Misses
		l2.Accesses += s.Accesses
		l2.Misses += s.Misses
	}
	t.set("cache.ns_per_access", t.tr.total("cache.Hierarchy")*1e9/float64(n), "ns")
	t.set("cache.dl1_miss_rate", l1d.MissRate(), "ratio")
	t.set("cache.l2_miss_rate", l2.MissRate(), "ratio")
	return nil
}

// control is one recorded control-flow instruction.
type control struct {
	tid    int
	class  isa.Class
	pc     uint64
	target uint64
	taken  bool
}

// probeBranch replays the basket's control streams (recorded through
// Stream.Advance's ControlFunc, threads interleaved) through a fresh
// Predictor and BTB per cell: Predict and ResolveWith for every
// conditional branch, BTB Lookup for every control instruction and
// Update for every taken one.
func (t *tracedRun) probeBranch() error {
	specs, err := basketSpecs()
	if err != nil {
		return err
	}
	root := t.tr.start("probe.branch", 0)
	defer t.tr.end(root)
	var n int
	var lookups, mispredicts uint64
	for _, c := range basketCellSpecs {
		ts := specs[c.workload]
		var ctl []control
		streams := make([]*trace.Stream, len(ts))
		for i, s := range ts {
			streams[i] = trace.NewStream(s.Program, s.Seed, s.DataBase)
		}
		const chunk = 1000
		for k := 0; k < streamProbeInsts; k += chunk {
			for i, st := range streams {
				st.Advance(chunk, func(class isa.Class, pc, target uint64, taken bool) {
					ctl = append(ctl, control{i, class, pc, target, taken})
				})
			}
		}
		pred := branch.NewPredictor(len(ts))
		btb := branch.NewBTB()
		id := t.tr.start("branch.Predictor+BTB", root)
		for _, x := range ctl {
			if x.class == isa.Branch {
				pred.ResolveWith(x.tid, x.pc, x.taken, pred.Predict(x.tid, x.pc))
			}
			btb.Lookup(x.pc)
			if x.taken {
				btb.Update(x.pc, x.target)
			}
		}
		t.tr.end(id)
		n += len(ctl)
		st := pred.Stats()
		lookups += st.Lookups
		mispredicts += st.Mispredicts
	}
	t.set("branch.ns_per_branch", t.tr.total("branch.Predictor+BTB")*1e9/float64(n), "ns")
	t.set("branch.accuracy", 1-float64(mispredicts)/float64(lookups), "ratio")
	return nil
}

// runtimeSample reads the runtime metrics the core probe reports.
func runtimeSample() (allocs, bytes, gcCPU, usedCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()),
		s[2].Value.Float64(), s[3].Value.Float64() - s[4].Value.Float64()
}

// probeCore times core.New for every exact cell, then exact passes
// through core.New + Processor.Run, checking each cell's pinned digest.
func (t *tracedRun) probeCore() error {
	cells, err := resolveCells(exactCellSpecs, 0)
	if err != nil {
		return err
	}
	root := t.tr.start("probe.core", 0)
	defer t.tr.end(root)
	newProc := func(c cell) (*core.Processor, error) {
		specs, err := sim.Specs(c.w)
		if err != nil {
			return nil, err
		}
		return core.New(c.cfg, specs, c.m, core.WithWarmup(exactWarmup))
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for _, c := range cells {
		for i := 0; i < newProbeReps; i++ {
			id := t.tr.start("core.New", root)
			_, err := newProc(c)
			t.tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&ms)
	t.set("core.new_ms", median(t.tr.durations("core.New"))*1e3, "ms")
	t.set("core.new_allocs", float64(ms.Mallocs-mallocs)/float64(len(cells)*newProbeReps), "count")

	nsPerCycle := map[string][]float64{}
	var committed, fetched uint64
	a0, b0, gc0, cpu0 := runtimeSample()
	for pass := 0; pass < corePasses; pass++ {
		for _, c := range cells {
			p, err := newProc(c)
			if err != nil {
				return err
			}
			id := t.tr.start("core.Run/"+c.workload, root)
			r, err := p.Run(exactBudget)
			d := t.tr.end(id)
			if err != nil {
				return err
			}
			t.check(checkExact(c.workload, r))
			nsPerCycle[c.workload] = append(nsPerCycle[c.workload], d*1e9/float64(p.Cycle()))
			if pass == 0 {
				committed += threadSum(r.Committed)
				fetched += r.Activity.Fetched
			}
		}
	}
	a1, b1, gc1, cpu1 := runtimeSample()
	for _, c := range cells {
		t.set("core.ns_per_cycle."+c.workload, median(nsPerCycle[c.workload]), "ns")
	}
	t.set("core.allocs_per_op", (a1-a0)/corePasses, "count")
	t.set("core.bytes_per_op", (b1-b0)/corePasses, "B")
	gcFrac := 0.0
	if cpu1 > cpu0 {
		gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	t.set("core.gc_cpu_frac", gcFrac, "ratio")
	t.set("core.commit_per_fetch", float64(committed)/float64(fetched), "ratio")
	return nil
}

// probeSampled runs the sampled basket through core.New +
// Processor.RunSampled, then estimates from outside where each cell's time
// goes: a Stream.Advance pass over every thread's covered stream, and the
// detailed cycles priced at the cell's exact ns/cycle from probeCore.
func (t *tracedRun) probeSampled() error {
	cells, err := resolveCells(basketCellSpecs, 0)
	if err != nil {
		return err
	}
	root := t.tr.start("probe.sampled", 0)
	defer t.tr.end(root)
	sp := core.DefaultSampleParams()
	noop := func(isa.Class, uint64, uint64, bool) {}
	results := map[string]core.Results{}
	var cellS, advanceS, detailS float64
	var detailed uint64
	for _, c := range cells {
		specs, err := sim.Specs(c.w)
		if err != nil {
			return err
		}
		p, err := core.New(c.cfg, specs, c.m)
		if err != nil {
			return err
		}
		id := t.tr.start("core.RunSampled/"+c.workload, root)
		r, err := p.RunSampled(sampledBudget, sp)
		d := t.tr.end(id)
		if err != nil {
			return err
		}
		t.check(checkSampled(c.workload, r))
		results[c.workload] = r
		t.set("core.sampled_ms."+c.workload, d*1e3, "ms")

		// Covered counts the leader's stream; each co-runner fast-forwards
		// in proportion to what it committed against the leader.
		id = t.tr.start("trace.Advance/covered", root)
		for i, s := range specs {
			n := r.Sampled.Covered * r.Committed[i] / leader(r.Committed)
			trace.NewStream(s.Program, s.Seed, s.DataBase).Advance(n, noop)
		}
		advanceS += t.tr.end(id)
		cellS += d
		detailed += r.Cycles
		detailS += float64(r.Cycles) * t.m["core.ns_per_cycle."+c.workload].Value / 1e9
	}
	t.set("core.sampled_detailed_cycles", float64(detailed), "count")
	t.set("core.sampled_advance_share_est", advanceS/cellS, "ratio")
	t.set("core.sampled_detail_share_est", detailS/cellS, "ratio")
	t.set("ipc_err_pct", ipcErrPct(results), "pct")
	return nil
}

// fleetRequests returns the simulation each of the fleet's run and
// evaluate specs submits (on M8, evaluate is one plain run).
func fleetRequests(fl fleet) ([]engine.Request, error) {
	var reqs []engine.Request
	for _, s := range fl.Specs {
		if s.Kind != "run" && s.Kind != "evaluate" {
			continue
		}
		cfg, err := config.Parse(s.Config)
		if err != nil {
			return nil, err
		}
		w, err := workload.ByName(s.Workload)
		if err != nil {
			return nil, err
		}
		req, err := sim.NewRequest(cfg, w, sim.Options{Budget: s.Budget, Warmup: s.Warmup}, "", 0)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// probeEngine submits the fleet's distinct run and evaluate simulations
// straight to a fresh engine: each once cold, timed against a direct
// sim.Run of the same request, then engineWarmRounds times warm.
func (t *tracedRun) probeEngine() error {
	reqs, err := fleetRequests(newFleet(t.seed))
	if err != nil {
		return err
	}
	runner, err := sim.NewRunner(engine.Options{Workers: 2, Log: obslog.New(io.Discard)})
	if err != nil {
		return err
	}
	defer runner.Close()
	eng := runner.Engine()
	ctx := context.Background()
	root := t.tr.start("probe.engine", 0)
	defer t.tr.end(root)

	submitWait := func(req engine.Request, name string) (core.Results, float64, error) {
		id := t.tr.start(name, root)
		tk, err := eng.Submit(ctx, req)
		if err != nil {
			t.tr.end(id)
			return core.Results{}, 0, err
		}
		r, err := tk.Wait(ctx)
		return r, t.tr.end(id), err
	}
	var overhead, hits []float64
	for _, req := range reqs {
		r, wait, err := submitWait(req, "engine.Submit+Wait/cold")
		if err != nil {
			return err
		}
		id := t.tr.start("sim.Run/direct", root)
		direct, err := sim.Run(req.Cfg, req.Workload, req.Mapping, sim.Options{Budget: req.Budget, Warmup: req.Warmup})
		run := t.tr.end(id)
		if err != nil {
			return err
		}
		overhead = append(overhead, wait-run)
		var mismatch error
		if exactDigest(r) != exactDigest(direct) {
			mismatch = fmt.Errorf("engine result for %s differs from a direct sim.Run", req)
		}
		t.check(mismatch)
	}
	for round := 0; round < engineWarmRounds; round++ {
		for _, req := range reqs {
			_, wait, err := submitWait(req, "engine.Submit+Wait/warm")
			if err != nil {
				return err
			}
			hits = append(hits, wait)
		}
	}
	st := runner.Stats()
	n := uint64(len(reqs))
	if st.Executed != n || st.Hits != n*engineWarmRounds || st.Coalesced != 0 {
		t.check(fmt.Errorf("engine stats %+v, want %d executed, %d hits, 0 coalesced", st, n, n*engineWarmRounds))
	} else {
		t.check(nil)
	}
	t.set("engine.hit_wait_us", median(hits)*1e6, "us")
	t.set("engine.miss_overhead_ms", median(overhead)*1e3, "ms")
	t.set("engine.hits", float64(st.Hits), "count")
	t.set("engine.executed", float64(st.Executed), "count")
	t.set("engine.coalesced", float64(st.Coalesced), "count")
	return nil
}

// probeServer replays the seed's fleet serverReplays times with spans on,
// each against a fresh daemon and then once more against the same daemon,
// and reads the server, client and search layers from the jobs' timings
// and the replays' CPU. An untimed replay comes first, as in the
// daemon-replay workload, so the figures mean the same whichever
// workload's traced run reports them.
func (t *tracedRun) probeServer() error {
	r := newDaemonReplay(t.seed, workDir())
	defer r.close()
	if err := r.setup(); err != nil {
		return err
	}
	if err := r.warmup(); err != nil {
		return err
	}
	var submit, stream, result, warm, cold, paretoCold, paretoWarm []float64
	var jobs, events int
	var requests, journal int64
	var freshCPU, warmCPU float64
	var executed uint64
	for i := 0; i < serverReplays; i++ {
		if err := r.prepare(); err != nil {
			return err
		}
		cpu0 := cpuSeconds()
		_, err := r.op(t.tr)
		freshCPU += cpuSeconds() - cpu0
		t.check(err)
		st := r.last
		executed += st.executed

		// The same fleet again on the same daemon: now every job is a
		// memo hit, and the replay's CPU is all outside simulation.
		cpu0 = cpuSeconds()
		again := r.replay(t.tr)
		warmCPU += cpuSeconds() - cpu0
		t.check(replayErr(st, again))

		requests += st.requests
		journal += st.journalBytes
		for _, outs := range st.outcomes {
			for _, o := range outs {
				jobs++
				events += len(o.events)
				submit = append(submit, o.submitMS)
				stream = append(stream, o.streamMS)
				result = append(result, o.resultMS)
				switch {
				case o.Warm && o.kind == "pareto":
					paretoWarm = append(paretoWarm, o.latencyMS)
				case o.kind == "pareto":
					paretoCold = append(paretoCold, o.latencyMS)
				}
				if o.Warm {
					warm = append(warm, o.latencyMS)
				} else {
					cold = append(cold, o.latencyMS)
				}
			}
		}
	}
	t.set("server.submit_ms", median(submit), "ms")
	t.set("server.stream_ms", median(stream), "ms")
	t.set("server.result_ms", median(result), "ms")
	t.set("server.events_per_job", float64(events)/float64(jobs), "count")
	t.set("server.http_requests_per_job", float64(requests)/float64(jobs), "count")
	t.set("server.journal_bytes_per_job", float64(journal)/float64(jobs), "B")
	t.set("server.warm_p50_ms", percentile(warm, 0.50), "ms")
	t.set("server.warm_p95_ms", percentile(warm, 0.95), "ms")
	t.set("server.cold_p50_ms", percentile(cold, 0.50), "ms")
	// A lower bound on the share of the fleet's CPU spent outside
	// Processor.Run: the all-hit replay's CPU over the fresh replay's. The
	// difference also holds the misses' work around each simulation
	// (engine queueing, core.New, journaling the result).
	t.set("server.outside_sim_cpu_share", warmCPU/freshCPU, "ratio")
	runS, err := fleetRunSeconds(t.seed)
	if err != nil {
		return err
	}
	t.set("server.outside_run_cpu_share_est", 1-float64(executed)*runS/freshCPU, "ratio")
	t.set("search.pareto_cold_ms", median(paretoCold), "ms")
	t.set("search.pareto_warm_ms", median(paretoWarm), "ms")
	return nil
}

// replayErr checks a replay on a daemon that already holds every result
// (prev is the daemon's first replay): every job is served done, and the
// engine simulates nothing more.
func replayErr(prev, st replayStats) error {
	for c := range st.outcomes {
		for _, o := range st.outcomes[c] {
			if o.err != nil {
				return fmt.Errorf("client %d %s job: %w", c, o.kind, o.err)
			}
			if err := checkTimeline(o.events); err != nil {
				return fmt.Errorf("client %d %s job: %w", c, o.kind, err)
			}
		}
	}
	if st.status429 > prev.status429 {
		return fmt.Errorf("daemon answered 429 %d times", st.status429-prev.status429)
	}
	if st.executed != prev.executed || st.coalesced != prev.coalesced {
		return fmt.Errorf("engine simulated again: executed %d→%d, coalesced %d→%d",
			prev.executed, st.executed, prev.coalesced, st.coalesced)
	}
	return nil
}

// fleetRunSeconds is the mean time Processor.Run takes on the fleet's run
// and evaluate simulations, timed directly (core.New untimed), each
// fleetRunReps times. The fleet's pareto simulations run at a like budget.
func fleetRunSeconds(seed int64) (float64, error) {
	reqs, err := fleetRequests(newFleet(seed))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, req := range reqs {
		specs, err := sim.Specs(req.Workload)
		if err != nil {
			return 0, err
		}
		for i := 0; i < fleetRunReps; i++ {
			p, err := core.New(req.Cfg, specs, req.Mapping, core.WithWarmup(req.Warmup))
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := p.Run(req.Budget); err != nil {
				return 0, err
			}
			total += time.Since(t0)
		}
	}
	return total.Seconds() / float64(len(reqs)*fleetRunReps), nil
}
