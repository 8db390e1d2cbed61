package main

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/server"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

func TestFleetDeterministicPerSeed(t *testing.T) {
	differ := false
	for seed := int64(0); seed < 20; seed++ {
		a, b := newFleet(seed), newFleet(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if !reflect.DeepEqual(a, newFleet(seed+1)) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("every seed generated the same fleet")
	}
}

func TestWarmJobsFollowTheirOwnClientsSettledSpec(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		f := newFleet(seed)
		warm := 0
		for c, seq := range f.Clients {
			settled := map[int]bool{}
			for i, j := range seq {
				if f.Owner[j.Spec] != c {
					t.Fatalf("seed %d client %d job %d: spec %d belongs to client %d", seed, c, i, j.Spec, f.Owner[j.Spec])
				}
				if j.Warm != settled[j.Spec] {
					t.Fatalf("seed %d client %d job %d: warm=%v, but the client has settled spec %d: %v",
						seed, c, i, j.Warm, j.Spec, settled[j.Spec])
				}
				settled[j.Spec] = true
				if j.Warm {
					warm++
				}
			}
		}
		if 4*warm < 3*f.jobs() {
			t.Fatalf("seed %d: %d of %d jobs warm, want at least three quarters", seed, warm, f.jobs())
		}
	}
}

// TestFleetSpecsShareNoSimulation pins the property the executed-count
// check rests on: distinct specs never request the same simulation.
func TestFleetSpecsShareNoSimulation(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		f := newFleet(seed)
		seen := map[string]bool{}
		budgets := map[uint64]string{}
		for _, s := range f.Specs {
			if k, ok := budgets[s.Budget]; ok && (k == "pareto" || s.Kind == "pareto") {
				t.Fatalf("seed %d: a %s and a %s spec share budget %d", seed, k, s.Kind, s.Budget)
			}
			budgets[s.Budget] = s.Kind
			if s.Kind == "pareto" {
				continue
			}
			cfg := config.MustParse(s.Config)
			req, err := sim.NewRequest(cfg, workload.MustByName(s.Workload), sim.Options{Budget: s.Budget, Warmup: s.Warmup}, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			if seen[req.Key()] {
				t.Fatalf("seed %d: two specs request %s", seed, req)
			}
			seen[req.Key()] = true
		}
	}
}

func TestCheckExactRejectsPerturbedResults(t *testing.T) {
	cfg := config.MustParse("2M4+2M2")
	w := workload.MustByName("2W1")
	m, err := sim.DefaultMapping(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(cfg, w, m, sim.Options{Budget: exactBudget, Warmup: exactWarmup})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExact("2W1", r); err != nil {
		t.Fatalf("unperturbed result: %v", err)
	}

	perturbed := []func(*core.Results){
		func(r *core.Results) { r.Cycles++ },
		func(r *core.Results) { r.Committed = append([]uint64{r.Committed[0] - 1}, r.Committed[1:]...) },
		func(r *core.Results) { r.Activity.Fetched++ },
		func(r *core.Results) {
			r.Activity.Pipes = append([]core.PipeActivity(nil), r.Activity.Pipes...)
			r.Activity.Pipes[1].FUOps[0]++
		},
	}
	for i, p := range perturbed {
		rr := r
		p(&rr)
		if checkExact("2W1", rr) == nil {
			t.Errorf("perturbation %d passed the check", i)
		}
	}

	pin := exactPins["2W1"]
	t.Cleanup(func() { exactPins["2W1"] = pin })
	flipped := []byte(pin)
	flipped[0] ^= 1
	exactPins["2W1"] = string(flipped)
	if checkExact("2W1", r) == nil {
		t.Error("a flipped digest byte passed the check")
	}
}

// pinnedSampled builds the sampled result BENCH_PR10 pins for w.
func pinnedSampled(w string) core.Results {
	p := sampledPins[w]
	return core.Results{IPC: p.ipc, Sampled: &core.SampleSummary{IPCMoE: p.moe, Units: p.units}}
}

func TestCheckSampledRejectsPerturbedResults(t *testing.T) {
	results := map[string]core.Results{}
	for w := range sampledPins {
		r := pinnedSampled(w)
		if err := checkSampled(w, r); err != nil {
			t.Fatalf("pinned %s: %v", w, err)
		}
		results[w] = r
	}
	if got := ipcErrPct(results); math.Abs(got-1.450182052173642) > 1e-12 {
		t.Errorf("ipc_err_pct of the pinned estimates = %v, BENCH_PR10 says 1.450182052173642", got)
	}

	perturbed := []func(*core.Results){
		func(r *core.Results) { r.IPC = math.Nextafter(r.IPC, 0) },
		func(r *core.Results) { r.Sampled.IPCMoE = math.Nextafter(r.Sampled.IPCMoE, 1) },
		func(r *core.Results) { r.Sampled.Units-- },
		func(r *core.Results) { r.Sampled = nil },
	}
	for i, p := range perturbed {
		r := pinnedSampled("2W4")
		p(&r)
		if checkSampled("2W4", r) == nil {
			t.Errorf("perturbation %d passed the check", i)
		}
	}

	// An exact IPC outside the reported margin fails even when the
	// estimate itself matches.
	pin := sampledPins["2W7"]
	t.Cleanup(func() { sampledPins["2W7"] = pin })
	moved := pin
	moved.exactIPC = pin.ipc + 1.01*pin.moe
	sampledPins["2W7"] = moved
	if checkSampled("2W7", pinnedSampled("2W7")) == nil {
		t.Error("an exact IPC outside the margin passed the check")
	}
}

// syntheticReplay is a replay of a two-spec fleet (one run, one pareto)
// that passes checkReplay.
func syntheticReplay() (fleet, replayStats) {
	f := fleet{
		Specs: []server.JobSpec{{Kind: "run"}, {Kind: "pareto"}},
		Owner: []int{0, 1},
	}
	f.Clients[0] = []fleetJob{{0, false}, {0, true}}
	f.Clients[1] = []fleetJob{{1, false}, {1, true}}
	events := func() []server.Event {
		return []server.Event{
			{Seq: 1, Type: server.EventAccepted}, {Seq: 2, Type: server.EventStarted},
			{Seq: 3, Type: server.EventSettled, Detail: "done"},
		}
	}
	run := []byte(`{"Cycles":10,"Committed":[4,3]}`)
	var st replayStats
	st.outcomes[0] = []jobOutcome{
		{fleetJob: f.Clients[0][0], kind: "run", events: events(), result: run},
		{fleetJob: f.Clients[0][1], kind: "run", events: events(), result: run},
	}
	st.outcomes[1] = []jobOutcome{
		{fleetJob: f.Clients[1][0], kind: "pareto", events: events(), result: []byte(`{"seed":7,"simulations":3,"cache_hit_rate":0}`)},
		{fleetJob: f.Clients[1][1], kind: "pareto", events: events(), result: []byte(`{"seed":7,"simulations":0,"cache_hit_rate":1}`)},
	}
	st.executed = 1 + 3
	return f, st
}

func TestCheckReplayRejectsPerturbedOutcomes(t *testing.T) {
	f, st := syntheticReplay()
	if err := checkReplay(f, st); err != nil {
		t.Fatalf("unperturbed replay: %v", err)
	}
	perturbed := map[string]func(*replayStats){
		"warm result byte": func(st *replayStats) {
			b := append([]byte(nil), st.outcomes[0][1].result...)
			b[len(b)-3]++
			st.outcomes[0][1].result = b
		},
		"warm pareto front": func(st *replayStats) {
			st.outcomes[1][1].result = []byte(`{"seed":8,"simulations":0,"cache_hit_rate":1}`)
		},
		"settled failed": func(st *replayStats) {
			st.outcomes[0][0].events[2].Detail = "failed"
		},
		"no started event": func(st *replayStats) {
			st.outcomes[1][1].events = append(st.outcomes[1][1].events[:1:1], st.outcomes[1][1].events[2])
		},
		"extra execution":   func(st *replayStats) { st.executed++ },
		"extra coalesce":    func(st *replayStats) { st.coalesced++ },
		"missing execution": func(st *replayStats) { st.executed-- },
		"client error":      func(st *replayStats) { st.outcomes[0][1].err = errors.New("connection reset") },
	}
	for name, p := range perturbed {
		f, st := syntheticReplay()
		p(&st)
		if err := checkReplay(f, st); err == nil {
			t.Errorf("%s: perturbed replay passed the check", name)
		}
	}
}

// TestCheckReplayCountsCoalescedSearchSimulations covers a search batch in
// which two candidates submit the same alone-run request at once: the
// engine executes it once and coalesces the other, while the pareto
// result counts both in its `simulations`.
func TestCheckReplayCountsCoalescedSearchSimulations(t *testing.T) {
	f, st := syntheticReplay()
	st.executed, st.coalesced = 1+2, 1
	if err := checkReplay(f, st); err != nil {
		t.Fatalf("a coalesced search simulation failed the check: %v", err)
	}
	st.coalesced = 0
	if checkReplay(f, st) == nil {
		t.Error("a simulation neither executed nor coalesced passed the check")
	}
}

func TestDaemonReplayPassesItsCheck(t *testing.T) {
	r := newDaemonReplay(7, t.TempDir())
	defer r.close()
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	res, err := r.op(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if res.jobs != r.fl.jobs() || len(res.latencies) != res.jobs {
		t.Fatalf("op reported %d jobs and %d latencies for a %d-job fleet", res.jobs, len(res.latencies), r.fl.jobs())
	}
	if got := r.last.requests; got != 3*int64(res.jobs) {
		t.Errorf("%d HTTP requests for %d jobs, want submit+stream+result each", got, res.jobs)
	}
	if !strings.HasSuffix(r.d.journal, "jobs.jsonl") || r.last.journalBytes == 0 {
		t.Errorf("job journal %s holds %d bytes", r.d.journal, r.last.journalBytes)
	}
}
