package server

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nic"
	"repro/internal/rack"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRackOfOneGolden is the rack tier's differential anchor: a rack
// of one server, under every scheduler kind, must reproduce the
// single-server golden traces byte for byte. The dispatcher makes a
// degenerate decision per arrival but consumes no randomness and books
// no extra events, so any divergence means the rack layer perturbed
// the path it wraps.
func TestRackOfOneGolden(t *testing.T) {
	for _, kind := range goldenKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			rr, err := RunRack(
				RackConfig{Servers: 1, Policy: rack.PowerOfK},
				goldenConfig(kind), goldenWorkload())
			if err != nil {
				t.Fatal(err)
			}
			if rr.RackCheck == nil || len(rr.ServerChecks) != 1 || rr.ServerChecks[0] == nil {
				t.Fatal("rack run executed without its invariant checkers")
			}
			var buf bytes.Buffer
			if err := trace.WriteCSV(&buf, rr.Requests); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden",
				fmt.Sprintf("%s.csv", sanitize(kind.String())))
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("rack-of-1 trace deviates from the single-server golden %s (%d vs %d bytes)",
					path, buf.Len(), len(want))
			}
			for id, srv := range rr.ServerOf {
				if srv != 0 {
					t.Fatalf("request %d dispatched to server %d in a rack of one", id, srv)
				}
			}
		})
	}
}

// rackGoldenPolicies enumerates the per-policy rack golden traces.
func rackGoldenPolicies() []rack.Kind {
	return []rack.Kind{rack.RoundRobin, rack.JSQ, rack.PowerOfK, rack.Affinity}
}

func rackGoldenConfig() (RackConfig, Config, Workload) {
	rc := RackConfig{
		Servers: 3, Policy: rack.PowerOfK, K: 2,
		SampleEvery: 5 * sim.Microsecond, TraceViews: true,
	}
	cfg := goldenConfig(SchedAltocumulus)
	svc := dist.Exponential{M: sim.Microsecond}
	wl := Workload{
		// Offered load scales with the rack: 0.7 per-server load across
		// 3 servers x 4 cores.
		Arrivals: dist.Poisson{Rate: dist.LoadForRate(0.7, 12, svc)},
		Service:  svc,
		N:        300, Warmup: 0, Conns: 24,
	}
	return rc, cfg, wl
}

// rackTraceBytes renders the full behavioural fingerprint of a rack
// run: the per-request trace plus the dispatch-decision trace.
func rackTraceBytes(t *testing.T, rr *RackResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, rr.Requests); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("# rack dispatch\n")
	if err := WriteRackDispatchCSV(&buf, rr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRackGoldenTraces locks down one golden trace per dispatch
// policy: request outcomes AND every dispatch decision (destination,
// view age, sampled depths). Regenerate with -update and review like
// any code change.
func TestRackGoldenTraces(t *testing.T) {
	for _, pol := range rackGoldenPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			rc, cfg, wl := rackGoldenConfig()
			rc.Policy = pol
			rr, err := RunRack(rc, cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			got := rackTraceBytes(t, rr)
			path := filepath.Join("testdata", "golden", fmt.Sprintf("rack_%s.csv", pol))
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rack trace deviates from %s (%d vs %d bytes); run with -update if the change is intended",
					path, len(got), len(want))
			}
		})
	}
}

// TestRackArenaParity proves the arena is invisible to rack results,
// mirroring TestGoldenTracesNoArena at rack width 3.
func TestRackArenaParity(t *testing.T) {
	rc, cfg, wl := rackGoldenConfig()
	a, err := RunRack(rc, cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoArena = true
	b, err := RunRack(rc, cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rackTraceBytes(t, a), rackTraceBytes(t, b)) {
		t.Fatal("arena and heap rack runs diverge")
	}
}

// TestRackRunInvariants exercises the rack accounting the checker
// reports: full conservation per server, bounded staleness, and real
// load spreading.
func TestRackRunInvariants(t *testing.T) {
	rc, cfg, wl := rackGoldenConfig()
	rr, err := RunRack(rc, cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for s := 0; s < rc.Servers; s++ {
		if rr.Dispatched[s] != rr.Completed[s] {
			t.Fatalf("server %d: dispatched %d completed %d", s, rr.Dispatched[s], rr.Completed[s])
		}
		if rr.Dispatched[s] == 0 {
			t.Fatalf("server %d received no traffic under %s", s, rc.Policy)
		}
		total += rr.Dispatched[s]
	}
	if total != uint64(wl.N) {
		t.Fatalf("dispatched %d, want %d", total, wl.N)
	}
	if rr.MaxSampleAge > rc.SampleEvery {
		t.Fatalf("max sample age %v exceeds the sampling period %v", rr.MaxSampleAge, rc.SampleEvery)
	}
	if rr.RackCheck.Delivered != uint64(wl.N) || rr.RackCheck.Completed != uint64(wl.N) {
		t.Fatalf("rack check counts: %+v", rr.RackCheck)
	}
	// Fresh-view dispatch pins every age to zero.
	rc.SampleEvery = 0
	fresh, err := RunRack(rc, cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.MaxSampleAge != 0 {
		t.Fatalf("fresh-view run reported age %v", fresh.MaxSampleAge)
	}
}

// TestRackDeterminism: identical configurations replay identical
// dispatch sequences, and the Scratch-reuse path (what each fleet
// worker does) does not perturb them.
func TestRackDeterminism(t *testing.T) {
	rc, cfg, wl := rackGoldenConfig()
	a, err := RunRack(rc, cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for round := 0; round < 2; round++ {
		b, err := RunRackWith(sc, rc, cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for id := range a.ServerOf {
			if a.ServerOf[id] != b.ServerOf[id] || a.Ages[id] != b.Ages[id] {
				t.Fatalf("round %d: dispatch of request %d diverged: %d@%v vs %d@%v",
					round, id, a.ServerOf[id], a.Ages[id], b.ServerOf[id], b.Ages[id])
			}
		}
	}
}

func TestRackConfigValidate(t *testing.T) {
	_, cfg, wl := rackGoldenConfig()
	if _, err := RunRack(RackConfig{Servers: 0}, cfg, wl); err == nil {
		t.Fatal("zero-width rack accepted")
	}
	if _, err := RunRack(RackConfig{Servers: 2, SampleEvery: -sim.Microsecond}, cfg, wl); err == nil {
		t.Fatal("negative sampling period accepted")
	}
	bad := wl
	bad.N = 0
	if _, err := RunRack(RackConfig{Servers: 2}, cfg, bad); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// twoPhaseProfile is a 2-phase chain with no class affinity: every
// scheduler kind runs it, and the phase sidecar records both phases.
func twoPhaseProfile() *dist.PhaseProfile {
	return dist.NewPhaseProfile("two",
		dist.PhaseSpec{Name: "a", Dist: dist.Exponential{M: 400 * sim.Nanosecond}},
		dist.PhaseSpec{Name: "b", Dist: dist.Fixed{V: 600 * sim.Nanosecond}})
}

// TestRackOfOneProfileParity: a rack of one runs the single-server
// generator, so a phased workload — with or without a bare Service
// beside the profile, and with the software stack's per-request core
// cost folded into phase 0 — reproduces the single-server run byte for
// byte on both the request trace and the phase sidecar.
func TestRackOfOneProfileParity(t *testing.T) {
	for _, kind := range goldenKinds() {
		cfg := goldenConfig(kind)
		cfg.Stack = rpcproto.StackERPC
		if kind == SchedRSS {
			_, rx, err := build(cfg, 0, sim.NewEngine(), sim.NewRNG(1), sim.NewRNG(2), nil)
			if err != nil {
				t.Fatal(err)
			}
			if rx.CoreStackCost(300) <= 0 {
				t.Fatal("software-stack config charges no core stack cost; the phase-0 fold is untested")
			}
		}
		for _, tc := range []struct {
			name    string
			service dist.ServiceDist
		}{
			{"profile only", nil},
			{"profile and service", dist.Exponential{M: sim.Microsecond}},
		} {
			wl := goldenWorkload()
			wl.Service, wl.Profile = tc.service, twoPhaseProfile()
			single, err := Run(cfg, wl)
			if err != nil {
				t.Fatalf("%s %s: %v", kind, tc.name, err)
			}
			rr, err := RunRack(RackConfig{Servers: 1, Policy: rack.PowerOfK}, cfg, wl)
			if err != nil {
				t.Fatalf("%s %s: rack: %v", kind, tc.name, err)
			}
			for _, w := range []func(io.Writer, []*rpcproto.Request) error{trace.WriteCSV, trace.WritePhaseCSV} {
				var a, b bytes.Buffer
				if err := w(&a, single.Requests); err != nil {
					t.Fatal(err)
				}
				if err := w(&b, rr.Requests); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("%s %s: rack-of-1 trace deviates from the single-server run (%d vs %d bytes)",
						kind, tc.name, b.Len(), a.Len())
				}
			}
			for _, r := range rr.Requests {
				if r.NumPhases != 2 || r.PhaseSvc[0]+r.PhaseSvc[1] != r.Service {
					t.Fatalf("%s %s: request %d: %d phases summing to %v, Service %v",
						kind, tc.name, r.ID, r.NumPhases, r.PhaseSvc[0]+r.PhaseSvc[1], r.Service)
				}
			}
		}
	}
}

// heteroConfig is a heterogeneous AC server: three general groups and
// one accelerator group, pow-2 phase forwarding between them.
func heteroConfig() Config {
	p := core.DefaultParams(4, 2)
	p.GroupClass = []uint8{0, 0, 0, 1}
	p.Forward = core.ForwardPowK
	p.ForwardK = 2
	return Config{Kind: SchedAltocumulus, AC: p, Stack: rpcproto.StackNanoRPC,
		Steer: nic.SteerConnection, Seed: 11}
}

// accelProfile runs parse on a general core, index on the accelerator
// and respond on a general core again: two forwards per request.
func accelProfile() *dist.PhaseProfile {
	return dist.NewPhaseProfile("accel",
		dist.PhaseSpec{Name: "parse", Dist: dist.Fixed{V: 100 * sim.Nanosecond}},
		dist.PhaseSpec{Name: "index", Dist: dist.Exponential{M: 300 * sim.Nanosecond},
			Class: 1, Speedup: 4, Offload: 40 * sim.Nanosecond},
		dist.PhaseSpec{Name: "respond", Dist: dist.Fixed{V: 100 * sim.Nanosecond}})
}

// TestRackProfileRun: a rack of three heterogeneous servers runs
// phased chains end to end — every request completes its full chain
// and every per-server checker and the rack checker report clean.
func TestRackProfileRun(t *testing.T) {
	prof := accelProfile()
	wl := Workload{
		Arrivals: dist.Poisson{Rate: dist.LoadForRate(0.6, 3*8, prof)},
		Profile:  prof, N: 600, Conns: 64,
	}
	rc := RackConfig{Servers: 3, Policy: rack.PowerOfK, K: 2, SampleEvery: 5 * sim.Microsecond}
	rr, err := RunRack(rc, heteroConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	if rr.RackCheck == nil || rr.RackCheck.Err() != nil || len(rr.ServerChecks) != rc.Servers {
		t.Fatalf("rack checker report: %+v, %d server reports", rr.RackCheck, len(rr.ServerChecks))
	}
	for s, rep := range rr.ServerChecks {
		if rep == nil || rep.Err() != nil {
			t.Fatalf("server %d checker report: %+v", s, rep)
		}
	}
	for _, r := range rr.Requests {
		last := int(r.NumPhases) - 1
		if r.NumPhases != 3 || int(r.Phase) != last || r.PhaseEnd[last] != r.Finish {
			t.Fatalf("request %d ended at phase %d of %d (last phase end %v, finish %v)",
				r.ID, r.Phase, r.NumPhases, r.PhaseEnd[last], r.Finish)
		}
	}
	for s := 0; s < rc.Servers; s++ {
		if rr.Dispatched[s] == 0 || rr.Dispatched[s] != rr.Completed[s] {
			t.Fatalf("server %d: dispatched %d completed %d", s, rr.Dispatched[s], rr.Completed[s])
		}
	}
}

// forwardLog records the destination queue of every phase forward on
// top of a full invariant checker.
type forwardLog struct {
	*check.Checker
	dests []int
}

func (f *forwardLog) OnRequeue(r *rpcproto.Request, q int, cause sched.RequeueCause, qlen int) {
	if cause == sched.RequeueForward {
		f.dests = append(f.dests, q)
	}
	f.Checker.OnRequeue(r, q, cause, qlen)
}

// TestRackServersForwardIndependently: rack servers draw their pow-k
// phase-forward samples from distinct streams. Two servers fed the
// identical request sequence from identical steering and scheduling
// streams must still forward differently, while server 0 replays
// itself exactly.
func TestRackServersForwardIndependently(t *testing.T) {
	const n = 400
	cfg, prof := heteroConfig(), accelProfile()
	forwards := func(srv int) []int {
		eng := sim.NewEngine()
		root := sim.NewRNG(cfg.Seed)
		log := &forwardLog{Checker: check.New(check.Options{Expected: n})}
		done := 0
		s, _, err := build(cfg, srv, eng, root.Fork(3), root.Fork(4),
			log.WrapDone(func(*rpcproto.Request) { done++ }))
		if err != nil {
			t.Fatal(err)
		}
		ac := s.(*core.Scheduler)
		ac.SetObserver(log)
		log.Attach(eng, checkSpecs(cfg), s.QueueLensInto)
		deliver := func(arg any, _ int64) {
			r := arg.(*rpcproto.Request)
			r.Arrival = eng.Now()
			s.Deliver(r)
		}
		rng := sim.NewRNG(5)
		for i := 0; i < n; i++ {
			r := &rpcproto.Request{ID: uint64(i), Conn: uint32(i), Size: 300}
			prof.Apply(r, rng)
			eng.AtArg(sim.Time(i)*150*sim.Nanosecond, deliver, r, 0)
		}
		for done < n {
			eng.Run(eng.Now() + 10*sim.Microsecond)
		}
		ac.Stop()
		if err := log.Finalize().Err(); err != nil {
			t.Fatalf("server %d: %v", srv, err)
		}
		return log.dests
	}
	a, again, b := forwards(0), forwards(0), forwards(1)
	if len(a) != 2*n {
		t.Fatalf("%d forwards, want %d", len(a), 2*n)
	}
	if !slices.Equal(a, again) {
		t.Fatal("server 0 does not replay its own forward decisions")
	}
	if slices.Equal(a, b) {
		t.Fatal("servers 0 and 1 forwarded identically: they share one forward stream")
	}
}
