package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/hwmsg"
	"repro/internal/nic"
	"repro/internal/policy"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/topo"
)

// wrapTicks replaces every manager's tick callback (before the ticks
// start) with one that calls pre, the real tick, then post.
func wrapTicks(s *Scheduler, pre, post func(g *group)) {
	for _, g := range s.groups {
		g := g
		g.tickFn = func() {
			if pre != nil {
				pre(g)
			}
			s.tick(g)
			if post != nil {
				post(g)
			}
		}
	}
}

// TestUpdateLandsAtTickInstant places two managers so that an UPDATE's
// flight time equals the tick period: every UPDATE lands at the same
// picosecond as the receiver's next tick. Both managers tick at the
// same instants, group 0 first. Group 0's UPDATE is reserved during
// its tick, before group 1's tick rearms, so it sorts before group 1's
// next tick and decide must see it; group 1's UPDATE sorts after group
// 0's next tick, so group 0 sees it one period later.
func TestUpdateLandsAtTickInstant(t *testing.T) {
	// Widen the groups until the two manager tiles sit far enough apart
	// on the mesh that a period equal to the UPDATE's flight time is not
	// stretched by the runtime's own cost.
	var p Params
	for w := 15; ; w++ {
		p = DefaultParams(2, w)
		mesh := topo.NewMesh(p.TotalCores())
		noc := topo.NewNoC(mesh)
		p.Period = noc.Serialization(hwmsg.UpdateWireSize) + sim.Time(mesh.Hops(0, w+1))*noc.PerHop
		cost := policy.TickCost(p.Groups, fabric.Default().Policy(), p.Iface)
		if sim.Time(policy.EffectivePeriod(policy.Duration(p.Period), cost)) == p.Period {
			break
		}
	}
	p.DisableMigration = true // keep each backlog where it was delivered

	rig := newRig(t, p, nic.SteerDirect)
	eng, s := rig.eng, rig.s
	var sent, seen [2][]int // per group: qlen broadcast, peer's view entry after land
	wrapTicks(s, func(g *group) {
		sent[g.id] = append(sent[g.id], g.netrx.Len())
	}, func(g *group) {
		seen[g.id] = append(seen[g.id], g.view[1-g.peerIdx])
	})
	// NetRX backlogs beyond what the workers claim, draining at staggered
	// service times, so successive broadcasts differ and an
	// off-by-one-period landing shows.
	backlog := p.WorkersPerGroup * (p.WorkerDepth + 10)
	eng.At(0, func() {
		for i := 0; i < backlog; i++ {
			for gid := 0; gid < 2; gid++ {
				s.Deliver(&rpcproto.Request{ID: uint64(2*i + gid), Conn: uint32(gid),
					Arrival: eng.Now(), Service: p.Period + sim.Time(i%7)*p.Period/5})
			}
		}
	})
	eng.Run(30 * p.Period)
	s.Stop()

	ticks := len(seen[0])
	if ticks < 20 || len(seen[1]) != ticks {
		t.Fatalf("ticks: %d / %d", ticks, len(seen[1]))
	}
	changes := 0
	for k := 2; k < ticks; k++ {
		// Group 1's k-th tick sees what group 0 sent one period
		// earlier: that UPDATE landed exactly at this instant, ahead of
		// the tick.
		if seen[1][k] != sent[0][k-1] {
			t.Fatalf("group 1 tick %d saw %d, want group 0's tick %d broadcast %d (landing at this instant, ordered before the tick)",
				k, seen[1][k], k-1, sent[0][k-1])
		}
		// Group 0's k-th tick fires ahead of the UPDATE landing at the
		// same instant, so it still sees the one sent two periods ago.
		if seen[0][k] != sent[1][k-2] {
			t.Fatalf("group 0 tick %d saw %d, want group 1's tick %d broadcast %d (the one landing now orders after the tick)",
				k, seen[0][k], k-2, sent[1][k-2])
		}
		if sent[0][k-1] != sent[0][k-2] {
			changes++
		}
	}
	if changes < 5 {
		t.Fatalf("broadcast changed only %d times; the off-by-one checks are vacuous", changes)
	}
}

// TestUpdateChannelFIFO checks the assumption that lets land apply an
// inbox in send order: on every (sender, receiver) channel, each
// UPDATE's landing stamp sorts after the previous one. It drives
// migration traffic (which shares the source link, or the manager core
// under SoftwareMessaging) alongside the broadcasts.
func TestUpdateChannelFIFO(t *testing.T) {
	hw := DefaultParams(4, 2)
	hw.Period = 100 * sim.Nanosecond
	hw.Bulk, hw.Concurrency = 4, 2
	sw := hw
	sw.SoftwareMessaging = true
	sw.Local = DispatchSoftware
	hetero := DefaultParams(5, 2)
	hetero.GroupClass = []uint8{0, 0, 0, 1, 1}
	hetero.ClassPeriods = []sim.Time{100 * sim.Nanosecond, 70 * sim.Nanosecond}
	hetero.Forward = ForwardPowK
	hetero.ForwardSeed = 3
	for _, tc := range []struct {
		name   string
		p      Params
		phased bool
	}{{"noc", hw, false}, {"software", sw, false}, {"hetero", hetero, true}} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, tc.p, nic.SteerDirect)
			eng, s := rig.eng, rig.s
			last := map[[2]int]sim.Stamp{}
			checked := 0
			wrapTicks(s, nil, func(g *group) {
				for _, pid := range g.peers {
					h := s.groups[pid]
					if h == g {
						continue
					}
					// The newest entry from g is the one this tick sent;
					// nothing has landed it yet.
					var cur sim.Stamp
					found := false
					for _, u := range h.inbox {
						if int(u.peer) == g.peerIdx {
							cur, found = u.at, true
						}
					}
					if !found {
						t.Fatalf("tick of group %d left no UPDATE in group %d's inbox", g.id, h.id)
					}
					key := [2]int{g.id, h.id}
					if prev, ok := last[key]; ok && !(prev.At < cur.At || prev.At == cur.At && prev.Seq < cur.Seq) {
						t.Fatalf("channel %d->%d: UPDATE stamp %+v after %+v", g.id, h.id, cur, prev)
					}
					last[key] = cur
					checked++
				}
			})
			const n = 400
			for i := 0; i < n; i++ {
				i := i
				eng.At(sim.Time(i)*40*sim.Nanosecond, func() {
					// Skew arrivals onto group 0 so migrations flow.
					conn := uint32(0)
					if i%4 == 3 {
						conn = uint32(i % tc.p.Groups)
					}
					if tc.phased {
						s.Deliver(phasedReq(uint64(i), conn, eng.Now()))
						return
					}
					s.Deliver(&rpcproto.Request{ID: uint64(i), Conn: conn, Arrival: eng.Now(), Service: 500 * sim.Nanosecond})
				})
			}
			eng.Run(40 * sim.Microsecond)
			s.Stop()
			if checked < 100 {
				t.Fatalf("only %d UPDATEs checked", checked)
			}
			if s.Stats.Migrations == 0 && !tc.phased {
				t.Fatal("no migrations: the link-sharing case is untested")
			}
		})
	}
}

// TestUpdatesScheduleNoEvents pins that a manager tick costs one engine
// event however many peers it broadcasts to: idle 2-group and 8-group
// schedulers over the same number of periods process exactly one event
// per tick, though the 8-group run sends seven UPDATEs per tick.
func TestUpdatesScheduleNoEvents(t *testing.T) {
	const periods = 50
	for _, groups := range []int{2, 8} {
		p := DefaultParams(groups, 2)
		rig := newRig(t, p, nic.SteerDirect)
		eng, s := rig.eng, rig.s
		s.startTicks()
		eng.Run(periods * p.Period)
		if want := uint64(periods * groups); s.Stats.Ticks != want {
			t.Fatalf("%d groups: %d ticks, want %d", groups, s.Stats.Ticks, want)
		}
		if want := s.Stats.Ticks * uint64(groups-1); s.Stats.UpdatesSent != want {
			t.Fatalf("%d groups: %d UPDATEs sent, want %d", groups, s.Stats.UpdatesSent, want)
		}
		if got := eng.Processed(); got != s.Stats.Ticks {
			t.Fatalf("%d groups: %d events for %d ticks; UPDATEs must not be events", groups, got, s.Stats.Ticks)
		}
	}
}

// TestManagerTickZeroAlloc gates the steady-state manager tick — land
// a non-empty inbox, broadcast, threshold, decide — at 0 allocs, and
// the inbox at its preallocated capacity.
func TestManagerTickZeroAlloc(t *testing.T) {
	p := DefaultParams(8, 2)
	rig := newRig(t, p, nic.SteerDirect)
	eng, s := rig.eng, rig.s
	busy := 0
	wrapTicks(s, func(g *group) {
		if len(g.inbox) > 0 {
			busy++
		}
	}, nil)
	caps := make([]int, len(s.groups))
	for i, g := range s.groups {
		caps[i] = cap(g.inbox)
	}
	s.startTicks()
	// Warm-up long enough for the ticks to have visited every timer-wheel
	// ring slot (each slot's bucket grows once, on first use).
	eng.Run(3000 * p.Period)
	busy = 0
	if avg := testing.AllocsPerRun(100, func() {
		eng.Run(eng.Now() + p.Period)
	}); avg != 0 {
		t.Fatalf("a period of manager ticks allocates %.1f times, want 0", avg)
	}
	if busy < 100*p.Groups {
		t.Fatalf("only %d ticks found a non-empty inbox", busy)
	}
	for i, g := range s.groups {
		if cap(g.inbox) != caps[i] {
			t.Fatalf("group %d inbox grew from %d to %d", i, caps[i], cap(g.inbox))
		}
	}
}

// TestGroupViewLandsPassedUpdates checks GroupView between runs: an
// UPDATE shows exactly when the last Run reached its landing instant,
// though the receiver has not ticked since.
func TestGroupViewLandsPassedUpdates(t *testing.T) {
	p := DefaultParams(2, 1)
	p.DisableMigration = true
	rig := newRig(t, p, nic.SteerDirect)
	eng, s := rig.eng, rig.s
	mesh := topo.NewMesh(p.TotalCores())
	noc := topo.NewNoC(mesh)
	flight := noc.Serialization(hwmsg.UpdateWireSize) + sim.Time(mesh.Hops(0, p.WorkersPerGroup+1))*noc.PerHop
	eng.At(0, func() {
		for i := 0; i < 10; i++ {
			s.Deliver(&rpcproto.Request{ID: uint64(i), Conn: 0, Arrival: eng.Now(), Service: sim.Microsecond})
		}
	})
	want := 10 - p.WorkerDepth // group 0's NetRX at its first tick
	eng.Run(p.Period + flight - 1)
	if got := s.GroupView(1)[0]; got != 0 {
		t.Fatalf("view before the UPDATE lands: %d, want 0", got)
	}
	eng.Run(p.Period + flight)
	if got := s.GroupView(1)[0]; got != want {
		t.Fatalf("view once the run reached the UPDATE: %d, want %d", got, want)
	}
}
