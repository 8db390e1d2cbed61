package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hdsmt/internal/client"
	"hdsmt/internal/config"
	"hdsmt/internal/engine"
	"hdsmt/internal/obslog"
	"hdsmt/internal/server"
	"hdsmt/internal/sim"
	"hdsmt/internal/telemetry"
	"hdsmt/internal/workload"
)

// opTimeout bounds one fleet replay; a replay that hangs fails its op.
const opTimeout = 60 * time.Second

// countingTransport counts HTTP round trips and 429 responses.
type countingTransport struct {
	base      http.RoundTripper
	requests  atomic.Int64
	status429 atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	t.requests.Add(1)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		t.status429.Add(1)
	}
	return resp, err
}

// daemon is one in-process hdsmtd: a server over a fresh sim.Runner with
// a job journal, telemetry on and the logger discarded, served on a
// loopback listener.
type daemon struct {
	dir        string
	journal    string
	reg        *telemetry.Registry
	runner     *sim.Runner
	srv        *server.Server
	ts         *httptest.Server
	transports [fleetClients]*countingTransport
	clients    [fleetClients]*client.Client
}

func startDaemon(parent string) (*daemon, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, journal: filepath.Join(dir, "jobs.jsonl"), reg: telemetry.NewRegistry()}
	discard := obslog.New(io.Discard)
	d.runner, err = sim.NewRunner(engine.Options{Workers: 2, Telemetry: d.reg, Log: discard})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.srv, err = server.New(d.runner, server.WithJobJournal(d.journal), server.WithTelemetry(d.reg), server.WithLogger(discard))
	if err != nil {
		d.runner.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d.ts = httptest.NewServer(d.srv.Handler())
	for c := range d.clients {
		d.transports[c] = &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
		hc := &http.Client{Transport: d.transports[c], Timeout: opTimeout}
		d.clients[c] = client.New(d.ts.URL, client.WithHTTPClient(hc))
	}
	return d, nil
}

// stop shuts the daemon down and removes its files.
func (d *daemon) stop() {
	d.ts.Close()
	for _, t := range d.transports {
		t.base.(*http.Transport).CloseIdleConnections()
	}
	if err := d.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hdsmtbench: closing job journal:", err)
	}
	d.runner.Close()
	os.RemoveAll(d.dir)
}

// requests is the HTTP round trips all clients made.
func (d *daemon) requests() (n, status429 int64) {
	for _, t := range d.transports {
		n += t.requests.Load()
		status429 += t.status429.Load()
	}
	return n, status429
}

// jobOutcome is one fleet job as its client saw it.
type jobOutcome struct {
	fleetJob
	kind string
	// Millisecond timings: Submit call, Submit return → settled event,
	// Result call, and submit → settled.
	submitMS, streamMS, resultMS, latencyMS float64
	events                                  []server.Event
	result                                  []byte
	err                                     error
}

// replayStats is what one fleet replay measured beyond its op result.
type replayStats struct {
	outcomes     [fleetClients][]jobOutcome
	requests     int64
	status429    int64
	journalBytes int64
	// executed and coalesced are the engine's Stats: simulations run, and
	// submissions attached to an identical simulation already in flight.
	executed, coalesced uint64
}

// daemonReplay is the daemon-replay workload. Each op replays the seed's
// fleet against a fresh daemon, so every op's cold jobs are cold; the
// daemon is started untimed before the op.
type daemonReplay struct {
	seed   int64
	parent string
	fl     fleet
	d      *daemon
	used   bool
	last   replayStats
}

func newDaemonReplay(seed int64, parent string) *daemonReplay {
	return &daemonReplay{seed: seed, parent: parent}
}

// setup builds the programs of every workload the fleet simulates,
// profiles their HEUR mappings and starts the first daemon. The fleet's
// cells are the same for every seed, so set-up costs the same too.
func (r *daemonReplay) setup() error {
	r.fl = newFleet(r.seed)
	names := append(append(append([]string(nil), runWorkloads...), evalWorkloads...), paretoWorkloads...)
	cfg := config.MustParse("2M4+2M2") // profiling depends on the workload, not the machine
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			return err
		}
		if _, err := sim.Specs(w); err != nil {
			return err
		}
		if _, err := sim.HeuristicMapping(cfg, w); err != nil {
			return err
		}
	}
	return r.prepare()
}

// warmup replays one untimed fleet.
func (r *daemonReplay) warmup() error {
	if _, err := r.op(nil); err != nil {
		return err
	}
	return r.prepare()
}

// prepare replaces a used daemon with a fresh one.
func (r *daemonReplay) prepare() error {
	if r.d != nil && !r.used {
		return nil
	}
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
	d, err := startDaemon(r.parent)
	if err != nil {
		return fmt.Errorf("starting daemon: %w", err)
	}
	r.d, r.used = d, false
	return nil
}

func (r *daemonReplay) close() {
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
}

// op replays the fleet against the prepared daemon and checks the
// replay's outputs.
func (r *daemonReplay) op(tr *tracer) (opResult, error) {
	r.used = true
	st := r.replay(tr)
	r.last = st

	res := opResult{jobs: r.fl.jobs()}
	for c := range st.outcomes {
		for _, o := range st.outcomes[c] {
			res.latencies = append(res.latencies, o.latencyMS)
			if o.kind == "run" && o.err == nil {
				var rr struct{ Committed []uint64 }
				if err := json.Unmarshal(o.result, &rr); err == nil {
					res.committed += threadSum(rr.Committed)
					res.covered += leader(rr.Committed)
				}
			}
		}
	}
	if st.status429 > 0 {
		return res, fmt.Errorf("daemon answered 429 %d times", st.status429)
	}
	return res, checkReplay(r.fl, st)
}

// replay runs the fleet once against the current daemon: each client runs
// its jobs closed-loop, submitting the next only after the previous one's
// result is in. The daemon's counters are cumulative over its replays.
func (r *daemonReplay) replay(tr *tracer) replayStats {
	d := r.d
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	root := tr.start("op", 0)
	var st replayStats
	var wg sync.WaitGroup
	for c := range r.fl.Clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range r.fl.Clients[c] {
				o := runJob(ctx, d.clients[c], r.fl.Specs[j.Spec], tr, root)
				o.fleetJob = j
				st.outcomes[c] = append(st.outcomes[c], o)
			}
		}(c)
	}
	wg.Wait()
	tr.end(root)

	st.requests, st.status429 = d.requests()
	es := d.runner.Stats()
	st.executed, st.coalesced = es.Executed, es.Coalesced
	if fi, err := os.Stat(d.journal); err == nil {
		st.journalBytes = fi.Size()
	}
	return st
}

// runJob submits one spec, follows its timeline over SSE until it
// settles, and fetches its result.
func runJob(ctx context.Context, cl *client.Client, spec server.JobSpec, tr *tracer, parent int) jobOutcome {
	o := jobOutcome{kind: spec.Kind}
	job := tr.start("job/"+spec.Kind, parent)
	defer tr.end(job)

	t0 := time.Now()
	id := tr.start("client.Submit", job)
	st, err := cl.Submit(ctx, spec)
	tr.end(id)
	t1 := time.Now()
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	id = tr.start("client.Stream", job)
	err = cl.Stream(ctx, st.ID, 0, func(ev server.Event) error {
		o.events = append(o.events, ev)
		return nil
	})
	tr.end(id)
	t2 := time.Now()
	if err != nil {
		o.err = fmt.Errorf("stream %s: %w", st.ID, err)
		return o
	}
	var raw json.RawMessage
	id = tr.start("client.Result", job)
	err = cl.Result(ctx, st.ID, &raw)
	tr.end(id)
	t3 := time.Now()
	if err != nil {
		o.err = fmt.Errorf("result %s: %w", st.ID, err)
		return o
	}
	o.result = raw
	ms := func(a, b time.Time) float64 { return b.Sub(a).Seconds() * 1e3 }
	o.submitMS, o.streamMS, o.resultMS, o.latencyMS = ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t0, t2)
	return o
}

// checkReplay checks one replay's outputs: every job settled done with
// the accepted→started→settled timeline backbone, every warm job's result
// equals its cold twin's, and the engine simulated exactly what the
// distinct specs need. Every engine submission is a memo hit, a coalesce
// onto an identical simulation in flight, or an execution. Each cold run
// and evaluate spec submits one simulation that nothing else requests; a
// pareto result's `simulations` counts its submissions that were not memo
// hits, coalesces included (two candidates of one search batch may share
// an alone-run request). So executed + coalesced must equal one per run
// and evaluate spec plus every pareto job's `simulations`.
func checkReplay(fl fleet, st replayStats) error {
	want := uint64(fl.count("run") + fl.count("evaluate"))
	for c := range st.outcomes {
		cold := map[int][]byte{}
		for _, o := range st.outcomes[c] {
			if o.err != nil {
				return fmt.Errorf("client %d %s job: %w", c, o.kind, o.err)
			}
			if err := checkTimeline(o.events); err != nil {
				return fmt.Errorf("client %d %s job: %w", c, o.kind, err)
			}
			res, err := comparable(o.kind, o.result)
			if err != nil {
				return fmt.Errorf("client %d %s job: %w", c, o.kind, err)
			}
			if o.kind == "pareto" {
				var p struct{ Simulations uint64 }
				if err := json.Unmarshal(o.result, &p); err != nil {
					return fmt.Errorf("client %d pareto job: %w", c, err)
				}
				want += p.Simulations
			}
			if !o.Warm {
				cold[o.Spec] = res
				continue
			}
			twin, ok := cold[o.Spec]
			if !ok {
				return fmt.Errorf("client %d: warm %s job before its cold twin", c, o.kind)
			}
			if !bytes.Equal(res, twin) {
				return fmt.Errorf("client %d: warm %s result differs from its cold twin", c, o.kind)
			}
		}
	}
	if got := st.executed + st.coalesced; got != want {
		return fmt.Errorf("engine executed %d and coalesced %d simulations, the fleet's distinct specs need %d", st.executed, st.coalesced, want)
	}
	return nil
}

// checkTimeline requires accepted, started and settled(done) events.
func checkTimeline(events []server.Event) error {
	var accepted, started, done bool
	for _, ev := range events {
		switch ev.Type {
		case server.EventAccepted:
			accepted = true
		case server.EventStarted:
			started = true
		case server.EventSettled:
			done = ev.Detail == "done"
			if !done {
				return fmt.Errorf("job settled %q", ev.Detail)
			}
		}
	}
	if !accepted || !started || !done {
		return fmt.Errorf("timeline lacks the accepted→started→settled backbone (%d events)", len(events))
	}
	return nil
}

// comparable returns the bytes a warm job must reproduce. A pareto
// result also reports what its own search cost (simulations submitted
// and not served from the memo, and their ratio), which a warm twin by
// design does not repeat; those fields are dropped before comparing.
func comparable(kind string, result []byte) ([]byte, error) {
	if kind != "pareto" {
		return result, nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(result, &m); err != nil {
		return nil, fmt.Errorf("decoding pareto result: %w", err)
	}
	delete(m, "simulations")
	delete(m, "cache_hit_rate")
	return json.Marshal(m)
}
