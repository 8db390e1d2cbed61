package main

import (
	"math/rand"

	"hdsmt/internal/server"
)

// The daemon-replay fleet is loadgen's default fleet (internal/loadgen:
// kind mix run 3 : evaluate 2 : search 2 : pareto 1, and its palettes)
// made warm/cold-deterministic. Search jobs are left out, so the mix is
// run 3 : evaluate 2 : pareto 1: each client owns loadgen's three run
// cells, its two evaluate cells and one pareto search over its pareto
// workload, each a distinct spec.
//
// The fleetClients closed-loop clients submit their specs in
// 1+fleetRepeats rounds. The first round is cold (the daemon must
// simulate); every later one is warm: the same client already saw that
// spec settle, so the daemon serves it from the engine's memo without
// simulating. Whether a job hits or misses is therefore fixed by the seed,
// never by timing. The cold round runs in spec order, pareto last, on both
// clients, so which cold simulations overlap is the same for every seed;
// the seed orders each warm round and draws the pareto search seeds.
const (
	fleetClients = 2
	fleetRepeats = 3 // warm rounds: 3/4 of the fleet is warm
)

// Cold budgets. Loadgen's are 2000/1000 (search budget 6); these are
// shrunk so that the fleet's simulations stay a minority of its CPU time
// (see METRICS.md for the measured share). Client c adds c to each budget,
// and the kinds' budgets are fleetClients apart, so no two specs of the
// fleet request the same simulation: the clients never share work, and
// neither do the kinds.
const (
	runBudget, runWarmup       = 50, 25
	evalBudget, evalWarmup     = 48, 25
	paretoBudget, paretoWarmup = 46, 25
	paretoSearchBudget         = 3
)

// Loadgen's palettes.
var (
	runWorkloads    = []string{"2W1", "2W7", "4W6"} // on M8
	evalWorkloads   = []string{"2W4", "2W8"}        // on M8: one simulation each, no mapping oracle
	paretoWorkloads = []string{"2W7"}
	paretoSeeds     = []int64{1, 2, 3}
)

// fleetJob is one submission: which spec, and whether it is warm.
type fleetJob struct {
	Spec int
	Warm bool
}

// fleet is one op's job list.
type fleet struct {
	// Specs are the distinct job specs; client Owner[i] owns Specs[i].
	Specs []server.JobSpec
	Owner []int
	// Clients holds each client's submissions in order.
	Clients [fleetClients][]fleetJob
}

// newFleet draws the fleet for seed.
func newFleet(seed int64) fleet {
	rng := rand.New(rand.NewSource(seed))
	var f fleet
	for c := range f.Clients {
		b := uint64(c)
		var owned []int
		add := func(s server.JobSpec) {
			owned = append(owned, len(f.Specs))
			f.Specs = append(f.Specs, s)
			f.Owner = append(f.Owner, c)
		}
		for _, w := range runWorkloads {
			add(server.JobSpec{Kind: "run", Config: "M8", Workload: w, Budget: runBudget + b, Warmup: runWarmup})
		}
		for _, w := range evalWorkloads {
			add(server.JobSpec{Kind: "evaluate", Config: "M8", Workload: w, Budget: evalBudget + b, Warmup: evalWarmup})
		}
		add(server.JobSpec{
			Kind: "pareto", Workloads: paretoWorkloads, Seed: paretoSeeds[rng.Intn(len(paretoSeeds))],
			SearchBudget: paretoSearchBudget, Budget: paretoBudget + b, Warmup: paretoWarmup,
		})
		for _, k := range owned {
			f.Clients[c] = append(f.Clients[c], fleetJob{Spec: k})
		}
		for r := 0; r < fleetRepeats; r++ {
			for _, k := range rng.Perm(len(owned)) {
				f.Clients[c] = append(f.Clients[c], fleetJob{Spec: owned[k], Warm: true})
			}
		}
	}
	return f
}

// jobs is the fleet's total submission count.
func (f fleet) jobs() int {
	n := 0
	for _, seq := range f.Clients {
		n += len(seq)
	}
	return n
}

// count returns how many distinct specs have the given kind.
func (f fleet) count(kind string) int {
	n := 0
	for _, s := range f.Specs {
		if s.Kind == kind {
			n++
		}
	}
	return n
}
