// Package server assembles a complete simulated RPC server — NIC receive
// path, scheduler, worker cores, and optionally an application (MICA) —
// and runs workloads against it, producing latency samples, SLO
// accounting, and per-request records for the replay-based analyses
// (migration effectiveness, prediction accuracy).
package server

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SchedulerKind selects which system the server models.
type SchedulerKind int

const (
	// SchedRSS: commodity NIC RSS with per-core d-FCFS queues and no
	// rebalancing (the "Emulated Commodity RSS NIC" baseline).
	SchedRSS SchedulerKind = iota
	// SchedIX: RSS d-FCFS over a kernel-bypass dataplane (IX).
	SchedIX
	// SchedZygOS: d-FCFS plus work stealing.
	SchedZygOS
	// SchedShinjuku: centralized software dispatcher with preemption.
	SchedShinjuku
	// SchedRPCValet / SchedNebula / SchedNanoPU: hardware JBSQ designs.
	SchedRPCValet
	SchedNebula
	SchedNanoPU
	// SchedAltocumulus: the paper's system (configured via Config.AC).
	SchedAltocumulus
	// SchedRSSPlus: d-FCFS with RSS++-style periodic indirection-table
	// rebalancing (every 20 us, per the paper's §IX-E citation).
	SchedRSSPlus
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedIX:
		return "IX"
	case SchedZygOS:
		return "ZygOS"
	case SchedShinjuku:
		return "Shinjuku"
	case SchedRPCValet:
		return "RPCValet"
	case SchedNebula:
		return "Nebula"
	case SchedNanoPU:
		return "nanoPU"
	case SchedAltocumulus:
		return "Altocumulus"
	case SchedRSSPlus:
		return "RSS++"
	default:
		return "RSS"
	}
}

// Config describes one server under test.
type Config struct {
	Kind  SchedulerKind
	Cores int         // total cores (baselines use all as workers; Shinjuku reserves one dispatcher)
	AC    core.Params // Altocumulus configuration (Kind == SchedAltocumulus)

	Stack rpcproto.StackKind
	Cost  fabric.CostModel
	Steer nic.SteerPolicy // steering for d-FCFS and AC group selection

	Seed uint64

	// SLO: explicit target; when 0, SLOMult x the workload's mean
	// service time is used (the paper's default L = 10).
	SLO     sim.Time
	SLOMult float64

	// SnapshotEvery, when > 0, records every queue length at this
	// period into Result.Snapshots (a rack concatenates its servers'
	// queues in server order).
	SnapshotEvery sim.Time

	// NoCheck opts this run out of the online invariant checker
	// (internal/check). The checker is on by default — it is passive and
	// deterministic, so results are identical either way; opt out only
	// for micro-benchmarks where its bookkeeping overhead matters.
	NoCheck bool

	// NoArena opts this run out of the request arena: every request is
	// heap-allocated for its whole lifetime, as in the original
	// implementation. Results are byte-identical either way (the arena
	// only changes where request records live); the escape hatch exists
	// so allocation-sensitive regressions can be bisected against the
	// plain-heap path (altobench -noarena).
	NoArena bool
}

// arenaEnabled is the process-wide default, written once at startup
// (the altobench -noarena flag) before any run begins — the same
// contract as check.SetEnabled.
var arenaEnabled = true

// SetArenaEnabled flips the process-wide arena default. Call it only
// before runs start (flag parsing); per-run opt-out is Config.NoArena.
func SetArenaEnabled(on bool) { arenaEnabled = on }

// ArenaEnabled reports the process-wide default.
func ArenaEnabled() bool { return arenaEnabled }

// Scratch holds per-worker reusable state for a sequence of runs: the
// request arena (slabs stay warm across runs) and the handle table.
// A Scratch must not be shared between concurrent runs — internal/fleet
// gives each pool worker its own via fleet.MapWith.
type Scratch struct {
	arena   *arena.Arena
	handles []arena.RequestID
}

// NewScratch returns an empty Scratch; slabs grow on first use.
func NewScratch() *Scratch { return &Scratch{arena: arena.New()} }

// App lets an application bind real work to requests.
type App interface {
	// Prepare assigns the operation, payload and base service time of a
	// freshly generated request (called at trace-generation time so that
	// all schedulers replay the identical workload).
	Prepare(r *rpcproto.Request, rng *sim.RNG)
}

// Workload is the offered load.
type Workload struct {
	Arrivals dist.ArrivalProcess
	Service  dist.ServiceDist // ignored when App or Profile != nil
	App      App
	// Profile draws each request as a multi-phase chain (DESIGN.md §15)
	// instead of one Service sample. Precedence: App > Profile >
	// Service. A 1-phase neutral profile consumes the identical RNG
	// stream as its bare distribution, so runs are byte-identical.
	Profile *dist.PhaseProfile
	N       int // total requests
	Warmup  int // initial completions excluded from the latency sample
	Conns   int // distinct connections (flows); default 1024
}

// Result is one run's measurements.
type Result struct {
	Name       string
	Lat        *stats.Sample
	SLO        sim.Time
	Summary    stats.Summary
	Requests   []*rpcproto.Request // indexed by request ID
	Duration   sim.Time            // last completion time
	OfferedRPS float64
	DoneRPS    float64 // completed / duration
	ACStats    core.Stats
	StealFrac  float64
	// WorkerUtilization is the mean busy fraction of the worker cores
	// over the run (management/dispatcher cores excluded).
	WorkerUtilization float64
	Snapshots         []Snapshot
	// Check is the invariant checker's report (nil when opted out).
	Check *check.Report
}

// Snapshot is a periodic queue-length observation.
type Snapshot struct {
	At   sim.Time
	Lens []int
}

// gen drives the lazily-generated arrival chain of a run over one or
// more servers. All callbacks are bound once at run start and requests
// ride through the engine as AtArg/AfterArg payloads, so steady-state
// generation, arrival, and delivery allocate nothing beyond the request
// records themselves — and with the arena enabled, not even those.
//
// A single server is a rack with no dispatch tier: scheds and rxs have
// one entry and rack is nil. RunRackWith adds the tier, and the arrival
// callback asks its dispatcher which server's NIC receives the request.
type gen struct {
	eng    *sim.Engine
	wl     *Workload
	arrRNG *sim.RNG
	svcRNG *sim.RNG
	res    *Result

	scheds []sched.Scheduler
	rxs    []nic.RXModel
	rack   *rackTier // nil without a dispatch tier

	// Arena mode: requests live in ar's slots while in flight and are
	// copied into the records value slab (which backs res.Requests) at
	// completion, when every field is final. Heap mode: ar is nil and
	// each request is a plain allocation kept forever.
	ar       *arena.Arena
	handles  []arena.RequestID
	records  []rpcproto.Request
	arenaErr error

	nDone      int
	meanSvcSum float64
	arriveFn   func(arg any, n int64)
	deliverFn  func(arg any, n int64)
}

// schedule generates request i (drawing Conn, then Service, then the
// arrival gap — the RNG order the golden traces lock down) and books
// its arrival event. Request i+1 is generated inside i's arrival
// callback, so at most one undelivered request exists at a time.
//
//altolint:hotpath
func (g *gen) schedule(i int, at sim.Time) {
	if i >= g.wl.N {
		return
	}
	var r *rpcproto.Request
	if g.ar != nil {
		r, g.handles[i] = g.ar.Acquire()
		g.res.Requests[i] = &g.records[i]
	} else {
		r = &rpcproto.Request{} //altolint:allow hotalloc the NoArena escape hatch heap-allocates by design
		g.res.Requests[i] = r
	}
	r.ID = uint64(i)
	r.Conn = uint32(g.arrRNG.Intn(g.wl.Conns))
	r.Size = 300
	if g.wl.App != nil {
		g.wl.App.Prepare(r, g.svcRNG)
	} else if g.wl.Profile != nil {
		g.wl.Profile.Apply(r, g.svcRNG)
	} else {
		r.Service = g.wl.Service.Sample(g.svcRNG)
	}
	g.meanSvcSum += r.Service.Seconds()
	// Software stacks charge per-request processing on the core. For a
	// phased request the stack cost lands on the first phase so the
	// per-phase durations keep summing to Service. Every server runs
	// the same stack, so server 0's receive model prices it.
	stackCost := g.rxs[0].CoreStackCost(r.Size)
	r.Service += stackCost
	if r.NumPhases > 0 && stackCost > 0 {
		r.PhaseSvc[0] += stackCost
		r.PhaseAcc[0] += stackCost
	}
	gap := g.wl.Arrivals.NextGap(g.arrRNG)
	g.eng.AtArg(at, g.arriveFn, r, int64(gap))
}

// arrive is the bound arrival callback: stamp the arrival, pick the
// receiving server (the rack dispatch decision, when there is a tier),
// book its NIC delivery, and generate the next request. The event
// creation order (delivery before next arrival) matches the original
// closure chain exactly.
//
//altolint:hotpath
func (g *gen) arrive(arg any, gapN int64) {
	r := arg.(*rpcproto.Request)
	now := g.eng.Now()
	r.Arrival = now
	srv := 0
	if g.rack != nil {
		srv = g.dispatch(r, now)
	}
	g.eng.AfterArg(g.rxs[srv].Delay(r.Size), g.deliverFn, r, int64(srv))
	g.schedule(int(r.ID)+1, now+sim.Time(gapN))
}

//altolint:hotpath
func (g *gen) deliver(arg any, srv int64) {
	g.scheds[srv].Deliver(arg.(*rpcproto.Request))
}

// complete is server srv's completion path, behind its checker.
func (g *gen) complete(srv int, r *rpcproto.Request) {
	g.nDone++
	if g.rack != nil {
		g.rackComplete(srv, r)
	}
	if int(r.ID) >= g.wl.Warmup {
		g.res.Lat.Add(r.Latency())
	}
	if r.Finish > g.res.Duration {
		g.res.Duration = r.Finish
	}
	if g.ar != nil {
		// Every field is final at completion; snapshot the record, then
		// recycle the slot. A stale handle here means a request
		// completed twice — remember the first occurrence and fail the
		// run after the loop (the checker reports it too).
		g.records[r.ID] = *r
		if !g.ar.Release(g.handles[r.ID]) && g.arenaErr == nil {
			g.arenaErr = fmt.Errorf("server: request %d released with stale arena handle", r.ID)
		}
	}
}

// Run executes the workload against the configured server with a
// private, throwaway Scratch.
func Run(cfg Config, wl Workload) (*Result, error) {
	return RunWith(nil, cfg, wl)
}

// RunWith executes the workload reusing sc's arena and buffers across
// runs (sc == nil allocates a fresh Scratch; pass one only from a
// single goroutine at a time). Results are independent of sc.
func RunWith(sc *Scratch, cfg Config, wl Workload) (*Result, error) {
	res, _, err := run(sc, nil, cfg, wl)
	return res, err
}

// run is the one run body behind RunWith (rc == nil: one server, no
// dispatch tier) and RunRackWith (rc.Servers servers behind the rack
// dispatcher). One engine drives every server; each runs its own
// scheduler, cores, and (by default) invariant checker.
func run(sc *Scratch, rc *RackConfig, cfg Config, wl Workload) (*Result, *RackResult, error) {
	if wl.N <= 0 {
		return nil, nil, fmt.Errorf("server: workload N = %d", wl.N)
	}
	if wl.Conns <= 0 {
		wl.Conns = 1024
	}
	if cfg.SLOMult == 0 {
		cfg.SLOMult = 10
	}
	if cfg.Cost.ClockHz == 0 {
		cfg.Cost = fabric.Default()
	}
	servers := 1
	if rc != nil {
		servers = rc.Servers
	}

	eng := sim.NewEngine()
	root := sim.NewRNG(cfg.Seed)
	arrRNG := root.Fork(1)
	svcRNG := root.Fork(2)

	res := &Result{
		Lat:      stats.NewSample(wl.N),
		Requests: make([]*rpcproto.Request, wl.N),
	}
	g := &gen{eng: eng, wl: &wl, arrRNG: arrRNG, svcRNG: svcRNG, res: res}
	checkOn := !cfg.NoCheck && check.Enabled() && (rc == nil || !rc.NoCheck)
	liveBefore := 0
	if !cfg.NoArena && ArenaEnabled() {
		if sc == nil {
			sc = NewScratch()
		}
		g.ar = sc.arena
		liveBefore = g.ar.Live()
		if cap(sc.handles) < wl.N {
			sc.handles = make([]arena.RequestID, wl.N)
		}
		g.handles = sc.handles[:wl.N]
		// The records slab is retained by the Result, so it cannot live
		// in the Scratch: one allocation per run, not per request.
		g.records = make([]rpcproto.Request, wl.N)
	}

	// Build each server — scheduler, NIC receive model, and its own
	// passive invariant checker — in index order. Server s forks tags
	// 3+2s and 4+2s: server 0 gets exactly the forks (and parent-state
	// draws) a single-server run makes, so a rack of one replays it
	// stream for stream.
	g.scheds = make([]sched.Scheduler, servers)
	g.rxs = make([]nic.RXModel, servers)
	checkers := make([]*check.Checker, servers)
	for s := range g.scheds {
		srv := s
		done := sched.Done(func(r *rpcproto.Request) { g.complete(srv, r) })
		if checkOn {
			opt := check.Options{
				AllowRemigration: cfg.Kind == SchedAltocumulus && cfg.AC.AllowRemigration,
				WorkConserving:   cfg.Kind == SchedZygOS,
			}
			if rc == nil {
				// Behind a dispatcher a server sees an unknown subset of
				// the ids; the rack checker owns whole-run conservation.
				opt.Expected = wl.N
			}
			checkers[s] = check.New(opt)
			done = checkers[s].WrapDone(done)
		}
		steerRNG := root.Fork(uint64(3 + 2*s))
		schedRNG := root.Fork(uint64(4 + 2*s))
		sch, rx, err := build(cfg, s, eng, steerRNG, schedRNG, done)
		if err != nil {
			return nil, nil, err
		}
		if chk := checkers[s]; chk != nil {
			sch.(interface{ SetObserver(sched.Observer) }).SetObserver(chk)
			chk.Attach(eng, checkSpecs(cfg), sch.QueueLensInto)
		}
		g.scheds[s], g.rxs[s] = sch, rx
	}
	if rc != nil {
		// The rack's own RNG forks last: with one server the dispatcher
		// never draws from it.
		t, err := newRackTier(*rc, wl.N, res, root.Fork(uint64(3+2*servers)), checkOn)
		if err != nil {
			return nil, nil, err
		}
		g.rack = t
	}
	res.Name = g.scheds[0].Name()
	if cfg.Kind == SchedAltocumulus {
		res.Name = "Altocumulus"
	}
	if rc != nil {
		res.Name = fmt.Sprintf("rack-of-%d[%s] %s", rc.Servers, rc.Policy, res.Name)
	}

	// Lazily-generated arrival chain: one event in flight at a time,
	// driven by the pre-bound gen callbacks.
	g.arriveFn = g.arrive
	g.deliverFn = g.deliver
	if g.rack != nil {
		g.startSampler()
	}
	g.schedule(0, 0)

	if cfg.SnapshotEvery > 0 {
		var snap func()
		snap = func() {
			if g.nDone >= wl.N {
				return
			}
			// One entry per queue, servers concatenated in index order.
			var lens []int
			for _, s := range g.scheds {
				lens = append(lens, s.QueueLens()...)
			}
			res.Snapshots = append(res.Snapshots, Snapshot{At: eng.Now(), Lens: lens})
			eng.After(cfg.SnapshotEvery, snap)
		}
		eng.After(cfg.SnapshotEvery, snap)
	}

	// Run to completion; the AC runtime ticks forever, so run in chunks.
	const chunk = 5 * sim.Millisecond
	const hardCap = 100 * sim.Second
	for g.nDone < wl.N {
		if eng.Now() > hardCap {
			return nil, nil, fmt.Errorf("server: %s did not finish %d requests within %v (done %d)",
				res.Name, wl.N, hardCap, g.nDone)
		}
		eng.Run(eng.Now() + chunk)
	}
	if g.arenaErr != nil {
		return nil, nil, g.arenaErr
	}
	if g.ar != nil && g.ar.Live() != liveBefore {
		return nil, nil, fmt.Errorf("server: %s leaked %d arena requests",
			res.Name, g.ar.Live()-liveBefore)
	}

	// Scheduler-specific statistics (ACStats, StealFrac) report server
	// 0; worker utilization averages over every server's cores.
	var busy float64
	var nCores int
	for s, sch := range g.scheds {
		if ac, ok := sch.(*core.Scheduler); ok {
			ac.Stop()
			if s == 0 {
				res.ACStats = ac.Stats
			}
		}
		if rp, ok := sch.(*sched.RSSPlus); ok {
			rp.Stop()
		}
		if z, ok := sch.(*sched.Steal); ok && s == 0 {
			res.StealFrac = z.StealFraction()
		}
		if cs, ok := sch.(interface{ Cores() []*exec.Core }); ok {
			for _, c := range cs.Cores() {
				busy += c.BusyTime().Seconds()
			}
			nCores += len(cs.Cores())
		}
	}
	if res.Duration > 0 && nCores > 0 {
		res.WorkerUtilization = busy / (res.Duration.Seconds() * float64(nCores))
	}

	var reports []*check.Report
	if checkOn {
		reports = make([]*check.Report, servers)
		for s, chk := range checkers {
			reports[s] = chk.Finalize()
			if err := reports[s].Err(); err != nil {
				if rc != nil {
					return nil, nil, fmt.Errorf("server: %s server %d: %w", res.Name, s, err)
				}
				return nil, nil, fmt.Errorf("server: %s: %w", res.Name, err)
			}
		}
		res.Check = reports[0]
	}
	var rr *RackResult
	if g.rack != nil {
		var err error
		if rr, err = g.finishRack(reports); err != nil {
			return nil, nil, err
		}
	}

	res.SLO = cfg.SLO
	if res.SLO == 0 {
		meanSvc := sim.FromSeconds(g.meanSvcSum / float64(wl.N))
		res.SLO = sim.Time(cfg.SLOMult * float64(meanSvc))
	}
	res.Summary = res.Lat.Summarize(res.SLO)
	res.OfferedRPS = wl.Arrivals.MeanRate()
	if res.Duration > 0 {
		res.DoneRPS = float64(wl.N) / res.Duration.Seconds()
	}
	return res, rr, nil
}

// checkSpecs maps a config's scheduler onto the checker's queue
// topology, following the probe id conventions documented on
// sched.Probe.
func checkSpecs(cfg Config) []check.QueueSpec {
	var specs []check.QueueSpec
	switch cfg.Kind {
	case SchedRSS, SchedIX, SchedZygOS, SchedRSSPlus:
		for i := 0; i < cfg.Cores; i++ {
			specs = append(specs, check.QueueSpec{ID: i, Core: i, Lens: i})
		}
	case SchedShinjuku:
		// The central queue has no owning core: a non-empty queue with
		// idle workers is legal while dispatches are in flight.
		specs = []check.QueueSpec{{ID: 0, Core: -1, Lens: 0}}
	case SchedRPCValet, SchedNebula, SchedNanoPU:
		// QueueLens exposes per-core outstanding counts (not local queue
		// lengths) after the central length, so only index 0 cross-checks.
		specs = append(specs, check.QueueSpec{ID: 0, Core: -1, Lens: 0})
		for i := 0; i < cfg.Cores; i++ {
			specs = append(specs, check.QueueSpec{ID: 1 + i, Core: i, Lens: -1})
		}
	case SchedAltocumulus:
		g, w := cfg.AC.Groups, cfg.AC.WorkersPerGroup
		for gid := 0; gid < g; gid++ {
			specs = append(specs, check.QueueSpec{ID: gid, Core: -1, Lens: gid})
		}
		for gid := 0; gid < g; gid++ {
			for wi := 0; wi < w; wi++ {
				specs = append(specs, check.QueueSpec{ID: g + gid*w + wi, Core: gid*w + wi, Lens: -1})
			}
		}
	}
	return specs
}

// build constructs the scheduler and NIC receive model of server srv
// (0 outside a rack) for a config.
func build(cfg Config, srv int, eng *sim.Engine, steerRNG, schedRNG *sim.RNG, done sched.Done) (sched.Scheduler, nic.RXModel, error) {
	cost := cfg.Cost
	stack := rpcproto.NewStack(cfg.Stack)

	pcie := nic.RXModel{Cost: cost, Attach: fabric.AttachPCIe, Stack: stack}
	integ := nic.RXModel{Cost: cost, Attach: fabric.AttachIntegrated, HWTerminated: true, Stack: stack}

	switch cfg.Kind {
	case SchedRSS, SchedIX:
		st := nic.NewSteerer(cfg.Steer, cfg.Cores, steerRNG)
		s := sched.NewDFCFS(eng, cfg.Cores, st, cost.CacheMiss, done)
		if cfg.Kind == SchedIX {
			s.Label = "IX"
		} else {
			s.Label = "RSS"
		}
		return s, pcie, nil
	case SchedZygOS:
		st := nic.NewSteerer(cfg.Steer, cfg.Cores, steerRNG)
		s := sched.NewSteal(eng, cfg.Cores, st, cost.CacheMiss, cost.StealAttempt, schedRNG, done)
		return s, pcie, nil
	case SchedRSSPlus:
		s := sched.NewRSSPlus(eng, cfg.Cores, 4*cfg.Cores, cost.CacheMiss,
			20*sim.Microsecond, done)
		return s, pcie, nil
	case SchedShinjuku:
		// One core is the dedicated dispatcher; ~200 ns per dispatch caps
		// it at the paper's 5 MRPS. 5 us preemption quantum.
		workers := cfg.Cores - 1
		if workers < 1 {
			workers = 1
		}
		s := sched.NewCentral(eng, workers, 200*sim.Nanosecond, cost.CoherenceMsg,
			5*sim.Microsecond, cost.PreemptCost, done)
		return s, pcie, nil
	case SchedRPCValet:
		s := sched.NewJBSQ(eng, cfg.Cores, sched.VariantRPCValet, 2, cost.CacheMiss,
			6*sim.Nanosecond, 0, 0, done)
		return s, integ, nil
	case SchedNebula:
		s := sched.NewJBSQ(eng, cfg.Cores, sched.VariantNebula, 2, cost.LLCAccess,
			4*sim.Nanosecond, 0, 0, done)
		return s, integ, nil
	case SchedNanoPU:
		s := sched.NewJBSQ(eng, cfg.Cores, sched.VariantNanoPU, 2, cost.RegisterXfer,
			1500*sim.Picosecond, 5*sim.Microsecond, 200*sim.Nanosecond, done)
		return s, integ, nil
	case SchedAltocumulus:
		// The phase-forward pow-k sampler gets its own stream, derived
		// from the run seed unless the caller pinned one. cfg is a copy,
		// so the caller's Params are untouched.
		if cfg.AC.ForwardSeed == 0 {
			cfg.AC.ForwardSeed = cfg.Seed
		}
		if srv > 0 {
			// Each rack server forwards from its own stream, hashed
			// through a fork so no two servers' splitmix sequences are
			// shifts of one another. Server 0 keeps the seed, so a rack
			// of one replays a single-server run.
			cfg.AC.ForwardSeed = sim.NewRNG(cfg.AC.ForwardSeed).Fork(uint64(srv)).Uint64()
		}
		st := nic.NewSteerer(cfg.Steer, cfg.AC.Groups, steerRNG)
		s, err := core.New(eng, cfg.AC, cost, st, done)
		if err != nil {
			return nil, nic.RXModel{}, err
		}
		if cfg.AC.Local == core.DispatchSoftware {
			// ACrss: commodity PCIe NIC, but the manager core runs the
			// networking threads (§VII "handles traditional networking
			// threads and request dispatch, similar to Shinjuku"), so
			// stack processing is pipelined off the workers: it adds
			// receive-path latency, not worker occupancy.
			return s, nic.RXModel{Cost: cost, Attach: fabric.AttachPCIe,
				HWTerminated: true, Stack: stack}, nil
		}
		return s, integ, nil
	default:
		return nil, nic.RXModel{}, fmt.Errorf("server: unknown scheduler kind %d", cfg.Kind)
	}
}
