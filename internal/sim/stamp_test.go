package sim

import "testing"

// FuzzEngineStamp checks Reserve/Passed against their definition: a
// reservation behaves exactly like an event that does nothing. One
// script runs on an oracle engine that schedules every "virtual" event
// for real (a no-op AtArg recording when it fired) and on engines under
// test that call Reserve instead. At every callback and after every
// Run/RunAll, Passed(stamp) must equal "the oracle has fired it"; the
// real events must fire at identical (at, seq) positions; and Now() and
// Pending() must agree, the oracle's pending count including its
// unfired virtual events.
//
// Small deltas (−15..15, the negative ones clamped to now) make ties at
// equal at the common case: virtual and real events at one instant,
// reservations from inside the callback of the instant's event, and
// Rearm(0) re-firing at the same instant ahead of a reservation taken
// after it.

// stampEv is one real event's behaviour, decoded from the script.
type stampEv struct {
	r      *stampRig
	id     int
	vdelta Time // reserve a virtual event this far ahead; <0 = none
	chain  Time // schedule a plain child this far ahead; 0 = none
	rearms int  // Rearm(period) this many times
	period Time
	stop   bool
}

func (ev *stampEv) fire() {
	r := ev.r
	r.onReal(ev.id)
	if ev.stop {
		r.eng.Stop()
	}
	if ev.rearms > 0 {
		ev.rearms--
		r.eng.Rearm(ev.period)
	}
	if ev.vdelta >= 0 {
		r.virtual(r.eng.Now() + ev.vdelta)
	}
	if ev.chain > 0 {
		r.schedule(false, r.eng.Now()+ev.chain, stampEv{vdelta: ev.vdelta})
	}
	r.checkPassed(r.nReal - 1)
}

func fireStampEv(arg any, _ int64) { arg.(*stampEv).fire() }

type stampFiring struct {
	id  int
	at  Time
	seq uint64
}

// stampRig replays the script on one engine.
type stampRig struct {
	name   string
	eng    *Engine
	oracle *stampRig // nil on the oracle itself

	log    []stampFiring
	ids    []EventID
	nReal  int // real callbacks started
	nextID int

	// Oracle: vAfter[v] is the number of real callbacks that had
	// started when virtual event v fired, -1 while unfired. Under test:
	// stamps[v] is v's reservation.
	vAfter []int
	stamps []Stamp

	timer  *Timer
	timerV Time
	t      *testing.T
}

func newStampRig(t *testing.T, name string, eng *Engine, oracle *stampRig) *stampRig {
	r := &stampRig{name: name, eng: eng, oracle: oracle, t: t}
	r.timer = eng.NewTimer(func() {
		r.onReal(-1)
		if r.timerV >= 0 {
			r.virtual(r.eng.Now() + r.timerV)
		}
	})
	return r
}

func (r *stampRig) onReal(id int) {
	r.log = append(r.log, stampFiring{id: id, at: r.eng.Now(), seq: r.eng.passSeq})
	r.nReal++
	r.checkPassed(r.nReal - 1)
}

func (r *stampRig) virtual(at Time) {
	if r.oracle == nil {
		v := len(r.vAfter)
		r.vAfter = append(r.vAfter, -1)
		r.eng.AtArg(at, func(any, int64) { r.vAfter[v] = r.nReal }, nil, 0)
		return
	}
	r.stamps = append(r.stamps, r.eng.Reserve(at))
}

func (r *stampRig) schedule(asArg bool, at Time, ev stampEv) {
	ev.r, ev.id = r, r.nextID
	r.nextID++
	p := &ev
	if asArg {
		r.ids = append(r.ids, r.eng.AtArg(at, fireStampEv, p, 0))
	} else {
		r.ids = append(r.ids, r.eng.At(at, p.fire))
	}
}

// checkPassed compares every reservation against the oracle, given
// that before real callbacks have started (the whole current op when
// called between ops). The oracle always runs an op before the engines
// under test, so its record covers every virtual event reserved so far.
func (r *stampRig) checkPassed(before int) {
	if r.oracle == nil {
		return
	}
	for v, s := range r.stamps {
		a := r.oracle.vAfter[v]
		want := a >= 0 && a <= before
		if got := r.eng.Passed(s); got != want {
			r.t.Fatalf("[%s] after %d real callbacks: Passed(virtual %d @%v/%d) = %v, oracle fired it: %v",
				r.name, before, v, s.At, s.Seq, got, want)
		}
	}
}

func FuzzEngineStamp(f *testing.F) {
	// Ties at one instant: a real event reserving at delta 0, an outside
	// reservation at the same instant, runs to exactly that instant.
	f.Add([]byte{0, 4, 0x01, 2, 4, 0, 4, 5, 4, 2, 0, 5, 0})
	// Rearm(0) ahead of a reservation taken after it, then Stop.
	f.Add([]byte{0, 2, 0x85, 7, 3, 0x08, 5, 1, 5, 2, 6})
	// Chains, cancels, timer arm/disarm, partial runs, drain.
	f.Add([]byte{1, 6, 0x13, 2, 3, 3, 0, 4, 2, 4, 5, 3, 4, 9, 5, 9, 6})
	// Outside reservations beyond a horizon that leaves the queue empty.
	f.Add([]byte{2, 12, 5, 3, 2, 14, 5, 4, 5, 20, 6})

	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i < len(data) {
				i++
				return data[i-1]
			}
			return 0
		}
		delta := func() Time { return Time(int8(next()) % 16) }

		o := newStampRig(t, "oracle", NewEngine(), nil)
		rigs := []*stampRig{
			o,
			newStampRig(t, "wheel", NewEngine(), o),
			newStampRig(t, "wheel4x3", newEngineWheel(4, 3), o),
		}
		for ops := 0; i < len(data) && ops < 256; ops++ {
			op := next() % 8
			switch op {
			case 0, 1, 7: // real event (AtArg for 1; a Stop for 7)
				d, b := delta(), next()
				ev := stampEv{vdelta: -1, stop: op == 7}
				if b&1 != 0 {
					ev.vdelta = Time(b>>4) % 8
				}
				if b&2 != 0 {
					ev.chain = Time(b>>3&7) + 1
				}
				if b&4 != 0 {
					ev.rearms = int(b>>5&3) + 1
					ev.period = Time(b & 3)
				}
				for _, r := range rigs {
					r.schedule(op == 1, r.eng.Now()+d, ev)
				}
			case 2: // reservation from outside any callback
				d := delta()
				for _, r := range rigs {
					r.virtual(r.eng.Now() + d)
				}
			case 3: // cancel a real event (maybe fired, cancelled or rearmed)
				k := int(next())
				for _, r := range rigs {
					if len(r.ids) > 0 {
						r.ids[k%len(r.ids)].Cancel()
					}
				}
			case 4: // timer: disarm when armed, else arm
				d, v := delta(), Time(int8(next())%8)
				for _, r := range rigs {
					if r.timer.Armed() {
						r.timer.Disarm()
					} else {
						r.timerV = v
						r.timer.Arm(r.eng.Now() + d)
					}
				}
			case 5: // bounded run
				d := Time(next())
				for _, r := range rigs {
					r.eng.Run(r.eng.Now() + d)
				}
			case 6:
				for _, r := range rigs {
					r.eng.RunAll()
				}
			}
			compareStampRigs(t, ops, o, rigs[1:])
		}
		for _, r := range rigs {
			r.eng.RunAll()
		}
		compareStampRigs(t, -1, o, rigs[1:])
		for _, r := range rigs[1:] {
			if len(r.log) != len(o.log) {
				t.Fatalf("[%s] fired %d real events, oracle %d", r.name, len(r.log), len(o.log))
			}
			for k := range r.log {
				if r.log[k] != o.log[k] {
					t.Fatalf("[%s] firing %d: %+v, oracle %+v", r.name, k, r.log[k], o.log[k])
				}
			}
		}
	})
}

// compareStampRigs checks the between-op state of every engine under
// test against the oracle.
func compareStampRigs(t *testing.T, op int, o *stampRig, rigs []*stampRig) {
	t.Helper()
	unfired := 0
	for _, a := range o.vAfter {
		if a < 0 {
			unfired++
		}
	}
	for _, r := range rigs {
		if r.nReal != o.nReal {
			t.Fatalf("op %d [%s]: %d real callbacks, oracle %d", op, r.name, r.nReal, o.nReal)
		}
		if r.eng.Now() != o.eng.Now() {
			t.Fatalf("op %d [%s]: Now() = %v, oracle %v", op, r.name, r.eng.Now(), o.eng.Now())
		}
		if r.eng.Pending()+unfired != o.eng.Pending() {
			t.Fatalf("op %d [%s]: Pending() = %d + %d reserved, oracle %d",
				op, r.name, r.eng.Pending(), unfired, o.eng.Pending())
		}
		r.checkPassed(r.nReal)
	}
}

// TestReserveKeepsEventPositions pins the contract on a hand-built
// schedule: a reservation consumes the sequence number AtArg would
// have, Passed flips exactly when the engine moves past it, and the
// clock lands where a no-op event there would have left it.
func TestReserveKeepsEventPositions(t *testing.T) {
	e := NewEngine()
	var order []string
	var s1, s2 Stamp
	e.At(10, func() {
		order = append(order, "a")
		s1 = e.Reserve(10) // same instant, after a
		s2 = e.Reserve(25)
		if e.Passed(s1) || e.Passed(s2) {
			t.Fatal("a reservation taken now cannot have passed")
		}
	})
	e.At(10, func() {
		order = append(order, "b")
		if e.Passed(s1) {
			t.Fatal("s1 was reserved after b was scheduled at the same instant; it sorts after b")
		}
	})
	e.At(30, func() {})
	e.Run(20)
	if len(order) != 2 || order[0] != "a" {
		t.Fatalf("order = %v", order)
	}
	if e.Passed(s2) {
		t.Fatal("s2 at 25 passed by Run(20)")
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v after Run(20) with the queue non-empty, want 10", e.Now())
	}
	e.Run(27)
	if !e.Passed(s2) || e.Now() != 25 {
		t.Fatalf("after Run(27): Passed(s2) = %v, Now() = %v; want true, 25", e.Passed(s2), e.Now())
	}
	if e.Processed() != 2 {
		t.Fatalf("Processed() = %d, reservations are not events", e.Processed())
	}
	s3 := e.Reserve(26) // outside a callback, behind the Run(27) horizon
	if e.Passed(s3) {
		t.Fatal("a reservation taken after Run returned cannot have passed")
	}
	e.RunAll()
	if !e.Passed(s3) || e.Now() != 30 {
		t.Fatalf("after RunAll: Passed(s3) = %v, Now() = %v", e.Passed(s3), e.Now())
	}
}
