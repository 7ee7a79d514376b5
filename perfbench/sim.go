package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fabric"
	"repro/internal/mica"
	"repro/internal/nic"
	"repro/internal/rack"
	"repro/internal/rpcproto"
	"repro/internal/server"
	"repro/internal/sim"
)

// simCase is one simulated workload. Each call of exec runs it once
// for a seed, from a fresh arrival process (dist.MMPP carries state, so
// it cannot be reused across runs).
type simCase struct {
	n, warmup int
	exec      func(sc *server.Scratch, seed uint64) (*server.Result, *server.RackResult, error)
	// phases, when nonzero, is the chain length every request must
	// finish with.
	phases int
}

// Sizes: large enough that the pooled p99 is stable across seeds, small
// enough that one run retains about 100 MB of request records or less.
const (
	kvBurstyN   = 250000
	rackGridN   = 200000
	multiphaseN = 200000
	// simSeeds is how many sub-seeds a run simulates; its simulated
	// metrics pool them. Eight keep the bursty tail of sim-kv-bursty
	// within about 10% across seeds.
	simSeeds = 8
	// setupRounds is how many times a run sets up before it measures;
	// setup_s is their median.
	setupRounds = 3
	// minRepeats is the floor of repetitions after the reference runs,
	// so every run proves that a sub-seed reproduces its digest.
	minRepeats = 1
)

// runSimKVBursty is the Fig. 14 application workload: MICA GET/SET with
// 0.1% SCAN on a 64-core AC server (4 groups x 15 workers, one EREW
// partition per group, SteerDirect) under fig14's bursty MMPP.
func runSimKVBursty(o opts, r *run) error {
	return runSim(o, r, func() (*simCase, error) {
		const groups, workers = 4, 15
		const load = 0.48
		store, err := mica.NewStore(mica.Config{
			Partitions: groups, BucketsPerPart: 262144 / groups,
			EntriesPerBucket: 8, LogBytesPerPart: (64 << 20) / groups,
		})
		if err != nil {
			return nil, err
		}
		app, err := server.NewMICAApp(store, mica.DefaultOpCost(fabric.Default()), 100000, 16, 512)
		if err != nil {
			return nil, err
		}
		app.ScanFrac = 0.001
		p := core.DefaultParams(groups, workers)
		p.Period = 100 * sim.Nanosecond
		p.Bulk = 48
		p.Concurrency = 3
		p.MRCapacity = 128
		p.FIFOCapacity = 48
		cfg := server.Config{Kind: server.SchedAltocumulus, AC: p,
			Stack: rpcproto.StackNanoRPC, Steer: nic.SteerDirect,
			SLO: sim.Microsecond}
		rate := load * float64(groups*workers) / app.MeanService().Seconds()
		return &simCase{n: kvBurstyN, warmup: kvBurstyN / 4, exec: func(sc *server.Scratch, seed uint64) (*server.Result, *server.RackResult, error) {
			cfg.Seed = seed
			res, err := server.RunWith(sc, cfg, server.Workload{
				Arrivals: burstyMMPP(rate), App: app, N: kvBurstyN, Warmup: kvBurstyN / 4,
			})
			return res, nil, err
		}}, nil
	})
}

// burstyMMPP is fig14's arrival process: multipliers 0.7-1.5x around
// the mean rate, 50 us mean dwell.
func burstyMMPP(rate float64) *dist.MMPP {
	mult := []float64{0.7, 0.9, 1.0, 1.1, 1.25, 1.5}
	var avg float64
	for _, m := range mult {
		avg += m
	}
	avg /= float64(len(mult))
	return &dist.MMPP{BaseRate: rate / avg, Mult: mult, Dwell: 50 * sim.Microsecond, PJump: 0.3}
}

// runSimRackGrid is the engine-bound rack workload: 8 AC servers of
// 8 groups x 15 workers with a 1 us manager period, power-of-2 dispatch
// on depth views sampled every 5 us, Poisson exp(1 us) at load 0.7.
func runSimRackGrid(o opts, r *run) error {
	return runSim(o, r, func() (*simCase, error) {
		const servers, groups, workers = 8, 8, 15
		p := core.DefaultParams(groups, workers)
		p.Period = sim.Microsecond
		cfg := server.Config{Kind: server.SchedAltocumulus, AC: p,
			Stack: rpcproto.StackNanoRPC, Steer: nic.SteerConnection}
		rc := server.RackConfig{Servers: servers, Policy: rack.PowerOfK, K: 2, SampleEvery: 5 * sim.Microsecond}
		svc := dist.Exponential{M: sim.Microsecond}
		rate := dist.LoadForRate(0.7, servers*groups*workers, svc)
		return &simCase{n: rackGridN, warmup: rackGridN / 10, exec: func(sc *server.Scratch, seed uint64) (*server.Result, *server.RackResult, error) {
			cfg.Seed = seed
			rr, err := server.RunRackWith(sc, rc, cfg, server.Workload{
				Arrivals: dist.Poisson{Rate: rate}, Service: svc, N: rackGridN, Warmup: rackGridN / 10,
			})
			if err != nil {
				return nil, nil, err
			}
			return rr.Result, rr, nil
		}}, nil
	})
}

// runSimMultiphase is the multiphase experiment's heterogeneous machine
// (3 general groups + 1 accelerator group, 2 workers each) running
// kv4-accel 4-phase chains with pow-2 phase forwarding at load 0.7.
func runSimMultiphase(o opts, r *run) error {
	return runSim(o, r, func() (*simCase, error) {
		index := dist.PhaseSpec{Name: "index", Dist: dist.Exponential{M: 300 * sim.Nanosecond},
			Class: 1, Speedup: 4, Offload: 40 * sim.Nanosecond}
		data := dist.PhaseSpec{Name: "data", Dist: dist.Exponential{M: 400 * sim.Nanosecond},
			Class: 1, Speedup: 2, Offload: 40 * sim.Nanosecond}
		prof := dist.NewPhaseProfile("kv4-accel",
			dist.PhaseSpec{Name: "parse", Dist: dist.Fixed{V: 100 * sim.Nanosecond}},
			index, data,
			dist.PhaseSpec{Name: "respond", Dist: dist.Fixed{V: 100 * sim.Nanosecond}},
		)
		p := core.DefaultParams(4, 2)
		p.GroupClass = []uint8{0, 0, 0, 1}
		p.Forward = core.ForwardPowK
		p.ForwardK = 2
		cfg := server.Config{Kind: server.SchedAltocumulus, AC: p,
			Stack: rpcproto.StackNanoRPC, Steer: nic.SteerConnection,
			SLO: 50 * sim.Microsecond}
		rate := dist.LoadForRate(0.7, 8, prof)
		return &simCase{n: multiphaseN, warmup: multiphaseN / 10, phases: prof.Len(), exec: func(sc *server.Scratch, seed uint64) (*server.Result, *server.RackResult, error) {
			cfg.Seed = seed
			res, err := server.RunWith(sc, cfg, server.Workload{
				Arrivals: dist.Poisson{Rate: rate}, Profile: prof, N: multiphaseN, Warmup: multiphaseN / 10,
			})
			return res, nil, err
		}}, nil
	})
}

// runSim is the shared measurement loop of the simulated workloads.
//
// Set-up (building the case, a fresh Scratch and one warm-up run that
// grows the arena and the timer wheel) happens setupRounds times;
// setup_s is the median. The run then simulates the case's sub-seeds
// derived from --seed once each: their pooled latencies and summed
// counters are the simulated metrics, exact for a given --seed however
// fast the host is. Timed repetitions cycle through the same sub-seeds
// on the same Scratch for the measurement time, and each must
// reproduce its sub-seed's digest bit for bit.
func runSim(o opts, r *run, build func() (*simCase, error)) error {
	var setups []float64
	var c *simCase
	var sc *server.Scratch
	var warmDigest uint64
	for i := 0; i < setupRounds; i++ {
		// Drop the previous round's world before timing the next, so
		// rounds neither share warm state nor stack their memory.
		c, sc = nil, nil
		debug.FreeOSMemory()
		t0 := wallNS()
		var err error
		if c, err = build(); err != nil {
			return err
		}
		sc = server.NewScratch()
		res, rr, err := c.exec(sc, subSeed(o.seed, 0))
		setups = append(setups, float64(wallNS()-t0)/1e9)
		r.attempted += int64(c.n)
		if err != nil {
			r.failed += int64(c.n)
			return fmt.Errorf("setup run: %w", err)
		}
		d := checkSimResult(r, c, res, rr)
		if i > 0 && d != warmDigest {
			r.fail("setup run %d digest %016x differs from the first %016x for the same seed", i, d, warmDigest)
		}
		warmDigest = d
	}
	r.metrics["setup_s"] = median(setups)
	measureStart := wallNS()

	var nsPerReq []float64
	digests := make([]uint64, simSeeds)
	hexDigests := make([]string, simSeeds)
	// once runs sub-seed k on the shared Scratch and returns host ns per
	// simulated request.
	once := func(k int) (float64, *server.Result, *server.RackResult, bool) {
		// Start every repetition from a collected heap with its free
		// pages returned to the OS, so no repetition pays for its
		// predecessor's garbage and peak RSS does not depend on where
		// the allocator happened to place a run's request records.
		debug.FreeOSMemory()
		t0 := wallNS()
		res, rr, err := c.exec(sc, subSeed(o.seed, k))
		dt := wallNS() - t0
		r.attempted += int64(c.n)
		if err != nil {
			r.failed += int64(c.n)
			r.fail("run of sub-seed %d: %v", k, err)
			return 0, nil, nil, false
		}
		return float64(dt) / float64(c.n), res, rr, true
	}
	model := &simModel{}
	for k := 0; k < simSeeds; k++ {
		ns, res, rr, ok := once(k)
		if !ok {
			return nil
		}
		nsPerReq = append(nsPerReq, ns)
		digests[k] = checkSimResult(r, c, res, rr)
		hexDigests[k] = fmt.Sprintf("%016x", digests[k])
		if k == 0 && digests[0] != warmDigest {
			r.fail("sub-seed 0 digest %016x differs from its warm-up run %016x", digests[0], warmDigest)
		}
		model.add(c, res, rr)
	}
	model.record(r)
	r.info["digests"] = hexDigests
	r.info["requests_per_run"] = c.n
	r.info["sub_seeds"] = simSeeds

	// repeat cycles through the sub-seeds until end (and at least
	// minRepeats times), appending host ns per request to out.
	repeat := func(end int64, out []float64) []float64 {
		for i := 0; i < minRepeats || wallNS() < end; i++ {
			k := i % simSeeds
			ns, res, rr, ok := once(k)
			if !ok {
				return out
			}
			if d := simDigest(res, rr); d != digests[k] {
				r.failed += int64(c.n)
				r.fail("repeat of sub-seed %d: digest %016x, first run %016x", k, d, digests[k])
			}
			out = append(out, ns)
		}
		return out
	}

	if !o.trace {
		nsPerReq = repeat(measureStart+int64(o.seconds*1e9), nsPerReq)
		r.info["host_ns_per_req_runs"] = nsPerReq
		r.metrics["host_ns_per_req"] = median(nsPerReq)
		return nil
	}

	// Traced: the reference runs above start the untraced half; the
	// same sub-seeds then run under the CPU profiler for another half of
	// the budget. The difference in host time is the profiler's
	// overhead.
	half := int64(o.seconds * 1e9 / 2)
	plain := median(repeat(measureStart+half, nsPerReq))
	var prof bytes.Buffer
	m0 := readMem()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	traced := repeat(wallNS()+half, nil)
	pprof.StopCPUProfile()
	m1 := readMem()
	reqs := float64(len(traced) * c.n)
	r.recordAllocs(m0, m1, reqs)
	r.metrics["trace_overhead_pct"] = (median(traced)/plain - 1) * 100
	self, err := moduleSelfNS(prof.Bytes())
	if err != nil {
		return err
	}
	for _, m := range profiledModules {
		r.metrics[m+".self_ns"] = float64(self[m]) / reqs
	}
	return nil
}

// subSeed derives the k-th simulation seed of a run from --seed.
func subSeed(seed uint64, k int) uint64 { return seed*1_000_003 + uint64(k) }

// checkSimResult applies the correctness checks to one run and returns
// its digest: the checkers ran and are clean, every request completed,
// and a phased workload finished every request as a full chain.
func checkSimResult(r *run, c *simCase, res *server.Result, rr *server.RackResult) uint64 {
	switch {
	case res.Check == nil:
		r.fail("invariant checker did not run")
	case res.Check.Err() != nil:
		r.fail("checker: %v", res.Check.Err())
	}
	if rr != nil {
		if rr.RackCheck == nil || len(rr.ServerChecks) != rr.Servers {
			r.fail("rack checkers did not run")
		}
		for s, rep := range rr.ServerChecks {
			if err := rep.Err(); err != nil {
				r.fail("server %d checker: %v", s, err)
			}
		}
	}
	if len(res.Requests) != c.n {
		r.fail("%d request records for %d requests", len(res.Requests), c.n)
	}
	incomplete, broken := 0, 0
	for _, q := range res.Requests {
		if q == nil || q.Finish <= 0 || q.Finish < q.Arrival {
			incomplete++
			continue
		}
		if c.phases > 0 && !fullChain(q, c.phases) {
			if broken == 0 {
				r.fail("request %d did not finish as a %d-phase chain (NumPhases=%d, PhaseEnd=%v)",
					q.ID, c.phases, q.NumPhases, q.PhaseEnd[:q.NumPhases])
			}
			broken++
		}
	}
	if incomplete > 0 {
		r.fail("%d of %d requests did not complete", incomplete, c.n)
	}
	if broken > 0 {
		r.fail("%d of %d requests did not finish as a %d-phase chain", broken, c.n, c.phases)
	}
	r.failed += int64(incomplete + broken)
	return simDigest(res, rr)
}

// fullChain reports whether q ran all phases with strictly increasing
// boundaries, the last one at completion.
func fullChain(q *rpcproto.Request, phases int) bool {
	if int(q.NumPhases) != phases || int(q.Phase) != phases-1 {
		return false
	}
	prev := q.Arrival
	for i := 0; i < phases; i++ {
		if q.PhaseEnd[i] <= prev {
			return false
		}
		prev = q.PhaseEnd[i]
	}
	return prev == q.Finish
}

// simDigest hashes every request's (ID, Arrival, Finish, Migrated) and,
// for a rack run, its server assignment.
func simDigest(res *server.Result, rr *server.RackResult) uint64 {
	h := fnv.New64a()
	var b [25]byte
	for _, q := range res.Requests {
		if q == nil {
			continue
		}
		binary.LittleEndian.PutUint64(b[0:], q.ID)
		binary.LittleEndian.PutUint64(b[8:], uint64(q.Arrival))
		binary.LittleEndian.PutUint64(b[16:], uint64(q.Finish))
		b[24] = 0
		if q.Migrated {
			b[24] = 1
		}
		h.Write(b[:])
	}
	if rr != nil {
		for _, s := range rr.ServerOf {
			binary.LittleEndian.PutUint32(b[:4], uint32(s))
			h.Write(b[:4])
		}
	}
	return h.Sum64()
}

// simModel pools the simulated results of a run's sub-seeds: latency
// samples past each run's warm-up, SLO violations, and the counters. A
// rack run exposes server 0's scheduler counters, so those are
// normalised by server 0's requests.
type simModel struct {
	lat                   []int64
	violations, samples   int
	reqs, ctrReqs, checks float64
	st                    core.Stats
	util                  float64
	runs                  int
	dispatched            []float64
	maxAge                sim.Time
}

func (m *simModel) add(c *simCase, res *server.Result, rr *server.RackResult) {
	for _, q := range res.Requests[c.warmup:] {
		m.lat = append(m.lat, int64(q.Latency()))
	}
	m.violations += res.Summary.Violations
	m.samples += res.Summary.N
	m.reqs += float64(len(res.Requests))
	if res.Check != nil {
		m.checks += float64(res.Check.Checks)
	}
	st := res.ACStats
	m.st.Ticks += st.Ticks
	m.st.UpdatesSent += st.UpdatesSent
	m.st.MigratedReqs += st.MigratedReqs
	m.st.NackedReqs += st.NackedReqs
	m.st.GuardSkips += st.GuardSkips
	m.st.PhaseForwards += st.PhaseForwards
	m.st.PhaseStays += st.PhaseStays
	m.util += res.WorkerUtilization
	m.runs++
	if rr == nil {
		m.ctrReqs += float64(len(res.Requests))
	} else {
		m.ctrReqs += float64(rr.Dispatched[0])
		if m.dispatched == nil {
			m.dispatched = make([]float64, len(rr.Dispatched))
		}
		for s, d := range rr.Dispatched {
			m.dispatched[s] += float64(d)
		}
		m.maxAge = max(m.maxAge, rr.MaxSampleAge)
		for _, rep := range rr.ServerChecks {
			m.checks += float64(rep.Checks)
		}
	}
}

func (m *simModel) record(r *run) {
	us := func(ps int64) float64 { return float64(ps) / float64(sim.Microsecond) }
	sortNS(m.lat)
	r.metrics["sim.p50_us"] = us(quantileNS(m.lat, 0.50))
	r.metrics["sim.p99_us"] = us(quantileNS(m.lat, 0.99))
	r.metrics["sim.slo_miss_pct"] = float64(m.violations) / float64(m.samples) * 100
	r.info["latency_samples"] = len(m.lat)
	r.metrics["check.checks_per_req"] = m.checks / m.reqs
	r.metrics["core.ticks_per_req"] = float64(m.st.Ticks) / m.ctrReqs
	r.metrics["core.updates_per_req"] = float64(m.st.UpdatesSent) / m.ctrReqs
	r.metrics["core.migrated_pct"] = float64(m.st.MigratedReqs) / m.ctrReqs * 100
	if tried := m.st.MigratedReqs + m.st.NackedReqs; tried > 0 {
		r.metrics["core.nack_ratio"] = float64(m.st.NackedReqs) / float64(tried)
	}
	if m.st.Ticks > 0 {
		r.metrics["core.guard_skips_per_tick"] = float64(m.st.GuardSkips) / float64(m.st.Ticks)
	}
	if b := m.st.PhaseForwards + m.st.PhaseStays; b > 0 {
		r.metrics["core.phase_forward_pct"] = float64(m.st.PhaseForwards) / float64(b) * 100
	}
	r.metrics["exec.worker_util"] = m.util / float64(m.runs)
	if m.dispatched != nil {
		var maxD, sumD float64
		for _, d := range m.dispatched {
			maxD = max(maxD, d)
			sumD += d
		}
		r.metrics["rack.dispatch_imbalance"] = maxD / (sumD / float64(len(m.dispatched)))
		r.metrics["rack.max_view_age_us"] = us(int64(m.maxAge))
	}
}
