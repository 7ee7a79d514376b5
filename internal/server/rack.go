package server

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/check"
	"repro/internal/policy"
	"repro/internal/rack"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// RackConfig describes the inter-server tier of a simulated rack: how
// many identical servers it holds and how arrivals are dispatched
// across them. The per-server tier is a plain Config — each server
// runs the existing group-scheduling core completely unchanged.
type RackConfig struct {
	// Servers is the rack width (>= 1).
	Servers int
	// Policy is the inter-server dispatch rule.
	Policy rack.Kind
	// K is the PowerOfK sample size (0 = 2).
	K int
	// SampleEvery is the queue-depth sampling period: the dispatcher's
	// view of per-server depth refreshes this often, going stale in
	// between exactly as RackSched's sampled lens vectors do. 0 means a
	// fresh view before every dispatch (an idealised instant-visibility
	// rack interconnect).
	SampleEvery sim.Time
	// NoCheck opts the rack run out of both the per-server invariant
	// checkers and the rack-level checker. On by default, like Config.
	NoCheck bool
	// TraceViews records each dispatch decision's sampled view as a
	// string (RackResult.Views) for golden traces. Costs an allocation
	// per request; leave off outside tests.
	TraceViews bool
}

// Validate reports unusable rack configurations.
func (rc RackConfig) Validate() error {
	if rc.Servers < 1 {
		return fmt.Errorf("server: rack Servers = %d, want >= 1", rc.Servers)
	}
	if rc.SampleEvery < 0 {
		return fmt.Errorf("server: rack SampleEvery = %v, want >= 0", rc.SampleEvery)
	}
	return nil
}

// RackResult extends a Result (aggregate latency, SLO accounting,
// per-request records — exactly what a single-server run reports) with
// the rack tier's accounting.
type RackResult struct {
	*Result
	Servers int
	Policy  rack.Kind
	// Dispatched and Completed are per-server request counts; the rack
	// checker proves they match at drain.
	Dispatched []uint64
	Completed  []uint64
	// MaxSampleAge is the oldest depth view any dispatch consulted.
	MaxSampleAge sim.Time
	// ServerOf[id] is the server request id was dispatched to; Ages[id]
	// is the view age its decision consulted.
	ServerOf []int32
	Ages     []sim.Time
	// Views[id] is the decision's sampled (server:depth) view, recorded
	// only under RackConfig.TraceViews.
	Views []string
	// RackCheck is the rack-level checker report; ServerChecks are the
	// per-server reports (nil when opted out).
	RackCheck    *check.Report
	ServerChecks []*check.Report
}

// rackTier is the inter-server dispatch tier of a rack run: the
// dispatcher, its RNG, the rack checker, and the per-request dispatch
// record. A single-server run has none.
type rackTier struct {
	rr   *RackResult
	disp *rack.Dispatcher
	rng  *sim.RNG
	chk  *check.RackChecker // nil when opted out

	// outstanding is the ground-truth per-server in-flight count
	// (dispatched minus completed) the sampler reads.
	outstanding []int
	sampleEvery sim.Time
}

// newRackTier builds the dispatch tier and the RackResult wrapping res.
func newRackTier(rc RackConfig, n int, res *Result, rng *sim.RNG, checkOn bool) (*rackTier, error) {
	disp, err := rack.NewDispatcher(rack.Config{
		Servers: rc.Servers, Policy: rc.Policy, K: rc.K,
		StalenessBound: policy.Duration(rc.SampleEvery),
	})
	if err != nil {
		return nil, err
	}
	t := &rackTier{
		rr: &RackResult{
			Result:     res,
			Servers:    rc.Servers,
			Policy:     rc.Policy,
			Dispatched: make([]uint64, rc.Servers),
			Completed:  make([]uint64, rc.Servers),
			ServerOf:   make([]int32, n),
			Ages:       make([]sim.Time, n),
		},
		disp:        disp,
		rng:         rng,
		outstanding: make([]int, rc.Servers),
		sampleEvery: rc.SampleEvery,
	}
	if rc.TraceViews {
		t.rr.Views = make([]string, n)
	}
	if checkOn {
		// The staleness bound: with periodic sampling no decision may
		// consult a view older than one period; with fresh-view dispatch
		// any nonzero age is a harness bug.
		bound := rc.SampleEvery
		if bound == 0 {
			bound = sim.Picosecond
		}
		t.chk = check.NewRackChecker(check.RackOptions{
			Servers: rc.Servers, Expected: n, StalenessBound: bound,
		})
	}
	return t, nil
}

// dispatch makes the rack decision for an arriving request and returns
// the receiving server. With one server the dispatcher short-circuits
// without consuming randomness, which is why a rack-of-1 trace is
// byte-identical to the single-server run.
//
//altolint:hotpath
func (g *gen) dispatch(r *rpcproto.Request, now sim.Time) int {
	t := g.rack
	if t.sampleEvery == 0 {
		t.disp.ObserveAll(t.outstanding, policy.Duration(now))
	}
	dec := t.disp.Pick(r.Conn, policy.Duration(now), t.rng)
	srv := dec.Server
	t.outstanding[srv]++
	t.rr.ServerOf[r.ID] = int32(srv)
	t.rr.Ages[r.ID] = sim.Time(dec.Age)
	if t.rr.Views != nil {
		t.recordView(r.ID, dec)
	}
	if t.chk != nil {
		t.chk.OnDispatch(r.ID, srv, sim.Time(dec.Age), now)
	}
	return srv
}

// rackComplete books a completion on server srv.
func (g *gen) rackComplete(srv int, r *rpcproto.Request) {
	t := g.rack
	t.outstanding[srv]--
	t.rr.Completed[srv]++
	if t.chk != nil {
		t.chk.OnComplete(r.ID, srv, g.eng.Now())
	}
}

// startSampler books the periodic depth sampler (none under fresh-view
// dispatch, which observes before every pick).
func (g *gen) startSampler() {
	t := g.rack
	if t.sampleEvery == 0 {
		return
	}
	var sample func(any, int64)
	sample = func(any, int64) {
		if g.nDone >= g.wl.N {
			return
		}
		t.disp.ObserveAll(t.outstanding, policy.Duration(g.eng.Now()))
		g.eng.AfterArg(t.sampleEvery, sample, nil, 0)
	}
	g.eng.AfterArg(t.sampleEvery, sample, nil, 0)
}

// recordView formats one decision's sampled (server:depth) pairs.
func (t *rackTier) recordView(id uint64, dec rack.Decision) {
	var b []byte
	for i, s := range dec.Sampled {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(dec.Depths[i]), 10)
	}
	t.rr.Views[id] = string(b)
}

// finishRack closes the rack's accounting after the run drained:
// per-server and rack checker reports (the rack report becomes
// Result.Check) and the per-server dispatch counts.
func (g *gen) finishRack(serverChecks []*check.Report) (*RackResult, error) {
	t, rr := g.rack, g.rack.rr
	if t.chk == nil {
		// Without the checker, dispatch counts come from the recorded
		// assignments.
		for _, s := range rr.ServerOf {
			rr.Dispatched[s]++
		}
		return rr, nil
	}
	rr.ServerChecks = serverChecks
	rr.RackCheck = t.chk.Finalize(g.eng.Now())
	rr.MaxSampleAge = t.chk.MaxSampleAge()
	disp, _ := t.chk.PerServer()
	copy(rr.Dispatched, disp)
	if err := rr.RackCheck.Err(); err != nil {
		return nil, fmt.Errorf("server: %s: %w", rr.Name, err)
	}
	rr.Check = rr.RackCheck
	return rr, nil
}

// RunRack executes the workload against a rack of identical servers
// with a private Scratch.
func RunRack(rc RackConfig, cfg Config, wl Workload) (*RackResult, error) {
	return RunRackWith(nil, rc, cfg, wl)
}

// RunRackWith is RunRack with a reusable Scratch (see RunWith). It runs
// the single-server run body with the dispatch tier added: a shared
// arrival process feeds the rack dispatcher, which routes each request
// to one server's NIC receive path; each server runs its own
// scheduler, cores, and (by default) invariant checker, with a
// rack-level checker proving inter-server conservation and bounded
// staleness on top.
func RunRackWith(sc *Scratch, rc RackConfig, cfg Config, wl Workload) (*RackResult, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	_, rr, err := run(sc, &rc, cfg, wl)
	return rr, err
}

// WriteRackDispatchCSV exports the rack tier's decision trace: one row
// per request with its destination server, the age of the depth view
// the decision consulted, and (when the run recorded them) the sampled
// (server:depth) pairs. Together with trace.WriteCSV this pins a rack
// run's behaviour byte-for-byte.
func WriteRackDispatchCSV(w io.Writer, rr *RackResult) error {
	if _, err := fmt.Fprintln(w, "id,server,age_ns,view"); err != nil {
		return err
	}
	for id, srv := range rr.ServerOf {
		view := ""
		if rr.Views != nil {
			view = rr.Views[id]
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%.3f,%s\n",
			id, srv, rr.Ages[id].Nanoseconds(), view); err != nil {
			return err
		}
	}
	return nil
}
