package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/live"
	"repro/internal/mica"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// The live-kv workload: a 2-group live.Runtime behind live.Server on
// TCP loopback, serving live.KVHandler over a preloaded MICA store, driven
// by the benchmark's own client over liveConns connections. The offered
// rates are fixed absolute numbers so a change that raises capacity is
// still measured at its parent's load.
const (
	liveGroups  = 2
	liveWorkers = 2 // per group: 4 workers on GOMAXPROCS=2 settle steadier than the default 8
	liveConns   = 2
	liveKeys    = 4096 // preloaded keys; connection c owns the keys k with k%liveConns == c
	liveValLen  = 64
	liveSetPct  = 10                          // SET share of requests, the rest are GETs
	liveWindow  = 16                          // closed loop: requests each connection keeps outstanding
	liveRate    = 20000.0                     // open-loop offered RPC/s, both connections together
	liveLimitNS = int64(2 * time.Millisecond) // p99 latency limit of the rate ladder
	liveWarm    = 20000                       // closed-loop requests of the warm round
	// liveOpenWarm is the head of an open loop (ns) that is checked but
	// not measured: a fresh runtime's first requests grow its arenas.
	liveOpenWarm = int64(250 * time.Millisecond)
	// liveRing bounds a closed-loop request's overtaking: a response
	// must arrive before liveRing later requests of its connection.
	liveRing = 1 << 16
	// liveClosedMaxRPS sizes a closed loop's conservation ledger; a
	// faster loop still works, its ledger just grows.
	liveClosedMaxRPS = 400000
)

// liveLadder is the fixed absolute rate ladder (RPC/s, both connections
// together) behind live.rps_at_slo.
var liveLadder = []float64{10000, 20000, 40000, 60000, 80000, 100000, 120000, 160000}

// liveWorld is the state that outlives one measurement phase: the
// store, its handler and the versions the client has written.
type liveWorld struct {
	kv *live.KVHandler
	// issued[k] is the highest value version written to key k. Only the
	// goroutine driving k's owning connection touches it during a
	// phase.
	issued []uint32
	keys   [][]byte
}

func newLiveWorld() (*liveWorld, error) {
	store, err := mica.NewStore(mica.Config{
		Partitions: liveGroups, BucketsPerPart: 1 << 12,
		EntriesPerBucket: 8, LogBytesPerPart: 32 << 20,
	})
	if err != nil {
		return nil, err
	}
	w := &liveWorld{kv: live.NewKVHandler(store), issued: make([]uint32, liveKeys)}
	for k := 0; k < liveKeys; k++ {
		w.keys = append(w.keys, keyBytes(k))
		if err := store.Set(w.keys[k], valueBytes(nil, k, 0)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// keyBytes is key k's fixed-width (16-byte) name.
func keyBytes(k int) []byte {
	return []byte(fmt.Sprintf("key-%012d", k))
}

// valueBytes appends version v of key k's value: the key index, the
// version, then a pattern derived from both, so a GET response proves
// which write it returns.
func valueBytes(dst []byte, k int, v uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	dst = binary.LittleEndian.AppendUint32(dst, v)
	for i := 8; i < liveValLen; i++ {
		dst = append(dst, byte(i*7+k*13+int(v)*31))
	}
	return dst
}

// checkValue reports why val is not a value the client preloaded or
// wrote to key k (at most version maxVer), or "" when it is.
func checkValue(val []byte, k int, maxVer uint32) string {
	if len(val) != liveValLen {
		return fmt.Sprintf("GET key %d: %d-byte value", k, len(val))
	}
	gotK, v := binary.LittleEndian.Uint32(val[0:4]), binary.LittleEndian.Uint32(val[4:8])
	if int(gotK) != k {
		return fmt.Sprintf("GET key %d returned key %d's value", k, gotK)
	}
	if v > maxVer {
		return fmt.Sprintf("GET key %d returned version %d, never written (max %d)", k, v, maxVer)
	}
	var want [liveValLen]byte
	if !bytes.Equal(val, valueBytes(want[:0], k, v)) {
		return fmt.Sprintf("GET key %d version %d: corrupt value bytes", k, v)
	}
	return ""
}

// spans holds the server-side stage stamps of a traced phase, indexed
// by request ID (masked: only the open loop's IDs are dense enough to
// be read back). Each slot is written by exactly one goroutine per
// request and read after the runtime has shut down.
type spans struct {
	mask              uint64
	steer, start, end []int64
}

func newSpans(n int) *spans {
	size := 1
	for size < n {
		size <<= 1
	}
	return &spans{mask: uint64(size - 1),
		steer: make([]int64, size), start: make([]int64, size), end: make([]int64, size)}
}

// steerHook stamps the request's arrival at Config.Steer, which the
// runtime calls inside Deliver after the frame was read and decoded,
// and returns the default group choice (Conn % Groups).
func (sp *spans) steerHook(r *rpcproto.Request) int {
	sp.steer[r.ID&sp.mask] = wallNS()
	return int(r.Conn) % liveGroups
}

// tracedHandler wraps the KV handler with service start and end stamps.
type tracedHandler struct {
	h  live.Handler
	sp *spans
}

func (t tracedHandler) Serve(r *rpcproto.Request) ([]byte, rpcproto.Status) {
	i := r.ID & t.sp.mask
	t.sp.start[i] = wallNS()
	p, st := t.h.Serve(r)
	t.sp.end[i] = wallNS()
	return p, st
}

// stream is one client connection. The closed loop drives it from one
// goroutine; the open loop from the shared sender (writer side and
// sendErr) and its receiver (reader side and the outcome counts).
type stream struct {
	w    *liveWorld
	idx  int
	conn net.Conn
	rng  *sim.RNG

	// Writer side.
	wbuf, payload []byte
	// Reader side.
	br    *bufio.Reader
	frame []byte

	// Closed loop (single goroutine): outstanding requests by sequence.
	ring []closedSlot
	seq  uint64

	// Outcome counts, summed after the goroutines join.
	sent, got, bad int64
	problems       []string
	err, sendErr   error
}

type closedSlot struct {
	id    uint64
	key   int32
	op    rpcproto.Op
	inUse bool
}

func (w *liveWorld) dial(addr string, seed uint64) ([]*stream, error) {
	var out []*stream
	for c := 0; c < liveConns; c++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			for _, s := range out {
				s.conn.Close()
			}
			return nil, err
		}
		out = append(out, &stream{
			w: w, idx: c, conn: conn, rng: sim.NewRNG(seed).Fork(uint64(c) + 1),
			br: bufio.NewReaderSize(conn, 64<<10),
		})
	}
	return out, nil
}

func (s *stream) problem(format string, args ...any) {
	s.bad++
	if len(s.problems) < 5 {
		s.problems = append(s.problems, fmt.Sprintf("conn %d: ", s.idx)+fmt.Sprintf(format, args...))
	}
}

// pick draws the next request: a key this connection owns and GET or
// SET. A SET takes the key's next version.
func (s *stream) pick() (int, rpcproto.Op, uint32) {
	k := s.rng.Intn(liveKeys/liveConns)*liveConns + s.idx
	if s.rng.Intn(100) < liveSetPct {
		s.w.issued[k]++
		return k, rpcproto.OpSet, s.w.issued[k]
	}
	return k, rpcproto.OpGet, 0
}

// appendRequest encodes one request frame onto the write buffer.
func (s *stream) appendRequest(id uint64, k int, op rpcproto.Op, ver uint32) error {
	key := s.w.keys[k]
	if op == rpcproto.OpSet {
		s.payload = binary.LittleEndian.AppendUint16(s.payload[:0], uint16(len(key)))
		s.payload = append(s.payload, key...)
		s.payload = valueBytes(s.payload, k, ver)
	} else {
		s.payload = append(s.payload[:0], key...)
	}
	req := rpcproto.Request{ID: id, Conn: uint32(s.idx), Op: op, Payload: s.payload}
	var err error
	if s.wbuf, err = rpcproto.AppendRequest(s.wbuf, &req); err != nil {
		return fmt.Errorf("encode request %d: %w", id, err)
	}
	s.sent++
	return nil
}

func (s *stream) flush() error {
	if len(s.wbuf) == 0 {
		return nil
	}
	_, err := s.conn.Write(s.wbuf)
	s.wbuf = s.wbuf[:0]
	return err
}

// readResponse blocks for the next response frame. Its payload aliases
// the stream's frame buffer.
func (s *stream) readResponse() (rpcproto.Response, error) {
	var hdr [rpcproto.ResponseHeaderSize]byte
	if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
		return rpcproto.Response{}, err
	}
	size, err := rpcproto.ResponseFrameSize(hdr[:])
	if err != nil {
		return rpcproto.Response{}, err
	}
	if cap(s.frame) < size {
		s.frame = make([]byte, size)
	}
	s.frame = s.frame[:size]
	copy(s.frame, hdr[:])
	if _, err := io.ReadFull(s.br, s.frame[len(hdr):]); err != nil {
		return rpcproto.Response{}, err
	}
	resp, _, err := rpcproto.DecodeResponse(s.frame)
	return resp, err
}

// verify checks one response against the request it answers.
func (s *stream) verify(resp rpcproto.Response, k int, op rpcproto.Op) {
	if resp.Status != rpcproto.StatusOK {
		s.problem("request %d (%s key %d): status %s", resp.ID, op, k, resp.Status)
		return
	}
	if op == rpcproto.OpSet {
		if len(resp.Payload) != 0 {
			s.problem("SET key %d: %d-byte response", k, len(resp.Payload))
		}
		return
	}
	if why := checkValue(resp.Payload, k, s.w.issued[k]); why != "" {
		s.problem("%s", why)
	}
}

// closedLoop keeps liveWindow requests outstanding, sending the next
// request only when a reply arrives, until stop says so; then it
// drains. A reply later than deadline fails the stream.
func (s *stream) closedLoop(stop func() bool, deadline time.Time) {
	if s.ring == nil {
		s.ring = make([]closedSlot, liveRing)
	}
	if s.err = s.conn.SetReadDeadline(deadline); s.err != nil {
		return
	}
	outstanding := 0
	send := func() bool {
		slot := &s.ring[s.seq%liveRing]
		if slot.inUse {
			s.err = fmt.Errorf("request %d overtaken by %d later requests", slot.id, liveRing)
			return false
		}
		k, op, ver := s.pick()
		id := s.seq*liveConns + uint64(s.idx)
		if s.err = s.appendRequest(id, k, op, ver); s.err != nil {
			return false
		}
		*slot = closedSlot{id: id, key: int32(k), op: op, inUse: true}
		s.seq++
		outstanding++
		return true
	}
	for outstanding < liveWindow && send() {
	}
	if err := s.flush(); err != nil {
		s.err = err
		return
	}
	for outstanding > 0 {
		resp, err := s.readResponse()
		if err != nil {
			s.err = fmt.Errorf("closed loop read: %w", err)
			return
		}
		slot := &s.ring[(resp.ID/liveConns)%liveRing]
		if !slot.inUse || slot.id != resp.ID {
			s.err = fmt.Errorf("response for unknown request %d", resp.ID)
			return
		}
		slot.inUse = false
		outstanding--
		s.got++
		s.verify(resp, int(slot.key), slot.op)
		if s.err == nil && !stop() {
			send()
		}
		// Coalesce the refills of responses that arrived together.
		if s.br.Buffered() < rpcproto.ResponseHeaderSize {
			if err := s.flush(); err != nil {
				s.err = err
				return
			}
		}
	}
}

// openPlan is one connection's open-loop schedule, fixed before the
// phase starts: request i is due at due[i] (wall ns) and has ID
// i*liveConns + conn. The sender fills sendAt, the receiver recvAt.
type openPlan struct {
	due, sendAt, recvAt []int64
	key                 []int32
	op                  []rpcproto.Op
	ver                 []uint32
	ok                  []bool
}

// plan draws Poisson arrivals at rate/liveConns per connection over
// seconds, starting at start.
func (s *stream) plan(rate, seconds float64, start int64) *openPlan {
	p := &openPlan{}
	meanGap := float64(liveConns) / rate * 1e9
	t := float64(start)
	for {
		t += s.rng.Exp(meanGap)
		if t >= float64(start)+seconds*1e9 {
			break
		}
		k, op, ver := s.pick()
		p.due = append(p.due, int64(t))
		p.key = append(p.key, int32(k))
		p.op = append(p.op, op)
		p.ver = append(p.ver, ver)
	}
	n := len(p.due)
	p.sendAt, p.recvAt, p.ok = make([]int64, n), make([]int64, n), make([]bool, n)
	return p
}

// pacer is the open-loop generator's clock: a timerfd registered with
// the runtime's network poller. A Go timer would do, but the runtime
// rounds a sub-millisecond wait of an otherwise idle process up to a
// whole millisecond (epoll_wait's unit), which would make the
// generator, not the server, dominate the latency of an open loop
// sending every 50 us. Blocking in nanosleep(2) instead would hold a
// processor for the whole wait, and spinning starves the network
// poller. A timerfd wakes the poller when it expires and parks the
// goroutine meanwhile.
type pacer struct {
	f  *os.File
	fd uintptr
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (p *pacer) Close() error { return p.f.Close() }

// waitUntil returns the wall time once it has reached t.
func (p *pacer) waitUntil(t int64) (int64, error) {
	for {
		now := wallNS()
		d := t - now
		if d <= 0 {
			return now, nil
		}
		// struct itimerspec: it_interval (zero: one-shot), it_value.
		its := [4]int64{0, 0, d / 1e9, d % 1e9}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
			uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
			return now, fmt.Errorf("timerfd_settime: %w", errno)
		}
		var expirations [8]byte
		if _, err := p.f.Read(expirations[:]); err != nil {
			return now, fmt.Errorf("timerfd read: %w", err)
		}
	}
}

// sendAll is the open loop's generator, one goroutine for all
// connections: wait until the earliest unsent request is due, then send
// every request due by now, one write per connection.
func sendAll(ss []*stream, plans []*openPlan, pc *pacer) {
	next := make([]int, len(ss))
	for {
		first := int64(math.MaxInt64)
		for c, p := range plans {
			if next[c] < len(p.due) {
				first = min(first, p.due[next[c]])
			}
		}
		if first == math.MaxInt64 {
			return
		}
		now, err := pc.waitUntil(first)
		if err != nil {
			for _, s := range ss {
				s.sendErr = err
			}
			return
		}
		for c, s := range ss {
			p := plans[c]
			for ; next[c] < len(p.due) && p.due[next[c]] <= now; next[c]++ {
				if s.sendErr != nil {
					continue // the receiver counts the requests never sent
				}
				i := next[c]
				p.sendAt[i] = now
				s.sendErr = s.appendRequest(uint64(i)*liveConns+uint64(c), int(p.key[i]), p.op[i], p.ver[i])
			}
			if s.sendErr == nil {
				if err := s.flush(); err != nil {
					s.sendErr = fmt.Errorf("open loop write: %w", err)
				}
			}
		}
	}
}

// receive collects the plan's responses until all arrived or the read
// deadline (10 s after the last due time) passes.
func (s *stream) receive(p *openPlan) {
	if len(p.due) == 0 {
		return
	}
	deadline := procStart.Add(time.Duration(p.due[len(p.due)-1]) + 10*time.Second)
	if err := s.conn.SetReadDeadline(deadline); err != nil {
		s.err = err
		return
	}
	for n := 0; n < len(p.due); n++ {
		resp, err := s.readResponse()
		if err != nil {
			s.err = fmt.Errorf("open loop: %d of %d responses missing: %w", len(p.due)-n, len(p.due), err)
			return
		}
		at := wallNS()
		i := resp.ID / liveConns
		if resp.ID%liveConns != uint64(s.idx) || i >= uint64(len(p.due)) || p.recvAt[i] != 0 {
			s.err = fmt.Errorf("unexpected response id %d", resp.ID)
			return
		}
		p.recvAt[i] = at
		s.got++
		before := s.bad
		s.verify(resp, int(p.key[i]), p.op[i])
		p.ok[i] = s.bad == before
	}
}

// phase runs one measurement on a fresh runtime and server over the
// shared store: dial, drive, then shut down and check the ledger and
// the data plane. expected pre-sizes the ledger, so its growth does not
// move peak RSS; sp != nil installs the stage hooks.
func (w *liveWorld) phase(r *run, seed uint64, expected int, sp *spans, drive func([]*stream)) (*live.Report, []*stream, error) {
	cfg := live.Config{Groups: liveGroups, WorkersPerGroup: liveWorkers, Expected: expected}
	var h live.Handler = w.kv
	if sp != nil {
		cfg.Steer = sp.steerHook
		h = tracedHandler{h: w.kv, sp: sp}
	}
	rt, err := live.New(cfg, h)
	if err != nil {
		return nil, nil, err
	}
	rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, nil, err
	}
	srv := live.NewServer(rt)
	wait := srv.ServeBackground(ln)
	streams, err := w.dial(ln.Addr().String(), seed)
	if err == nil {
		drive(streams)
		for _, s := range streams {
			s.conn.Close()
		}
	}
	drainErr := rt.Drain(10 * time.Second)
	rt.Close()
	rep := rt.Report()
	serveErr := wait()
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("dial: %w", err)
	case serveErr != nil:
		return nil, nil, fmt.Errorf("serve: %w", serveErr)
	}
	if drainErr != nil {
		r.fail("%v", drainErr)
	}
	if err := rep.Check.Err(); err != nil {
		r.fail("ledger: %v", err)
	}
	if leaked, stale := srv.DataPlaneStats(); leaked != 0 || stale != 0 {
		r.fail("data plane: %d leaked arena slot(s), %d stale release(s)", leaked, stale)
	}
	for _, s := range streams {
		r.attempted += s.sent
		r.failed += s.sent - s.got + s.bad
		for _, p := range s.problems {
			r.fail("%s", p)
		}
		for _, err := range []error{s.err, s.sendErr} {
			if err != nil {
				r.fail("conn %d: %v", s.idx, err)
			}
		}
	}
	if rep.Check.Completed != rep.Check.Delivered {
		r.fail("runtime completed %d of %d delivered requests", rep.Check.Completed, rep.Check.Delivered)
	}
	return rep, streams, nil
}

// liveWindows is how many equal windows a measurement phase is cut
// into; its figures are medians over the windows, so one stall of the
// shared host moves one window, not the result.
const liveWindows = 8

// closedPhase runs the closed loop for seconds and returns the median
// over liveWindows windows of completed RPCs per second, and the RPCs
// completed in all.
func (w *liveWorld) closedPhase(r *run, seed uint64, sp *spans, seconds float64) (float64, int64, error) {
	counts := make([][liveWindows]int64, liveConns)
	var t0, end int64
	// Start from a collected heap with free pages returned to the OS, as
	// the simulated workloads do before every timed run.
	debug.FreeOSMemory()
	_, _, err := w.phase(r, seed, int(liveClosedMaxRPS*seconds), sp, func(ss []*stream) {
		t0 = wallNS()
		end = t0 + int64(seconds*1e9)
		var fns []func()
		for c, s := range ss {
			cnt := &counts[c]
			fns = append(fns, func() {
				s.closedLoop(func() bool {
					now := wallNS()
					if now >= end {
						return true
					}
					cnt[(now-t0)*liveWindows/(end-t0)]++
					return false
				}, procStart.Add(time.Duration(end)+10*time.Second))
			})
		}
		runParallel(fns...)
	})
	if err != nil {
		return 0, 0, err
	}
	rates := make([]float64, liveWindows)
	var done int64
	for _, cnt := range counts {
		for i, n := range cnt {
			rates[i] += float64(n) / (float64(end-t0) / liveWindows / 1e9)
			done += n
		}
	}
	return median(rates), done, nil
}

// openResult is one open-loop phase's client-side view.
type openResult struct {
	plans []*openPlan
	// windows holds the measured latencies split into liveWindows
	// windows by due time, each sorted; a failed request reads
	// math.MaxInt64.
	windows [][]int64
	samples int
	tail    int64 // mean latency of the last tenth of requests by due time
	rep     *live.Report
	start   int64 // wall ns of the first possible due time
	secs    float64
}

// windowQuantileUS is the median over the windows of each window's
// q-quantile, in microseconds.
func (o *openResult) windowQuantileUS(q float64) float64 {
	var qs []float64
	for _, w := range o.windows {
		qs = append(qs, float64(quantileNS(w, q))/1e3)
	}
	return median(qs)
}

// meets reports whether the phase held the latency limit at p99
// without a growing backlog (its last requests no slower than the
// limit).
func (o *openResult) meets() bool {
	return o.windowQuantileUS(0.99)*1e3 <= float64(liveLimitNS) && o.tail <= liveLimitNS
}

// openPhase offers rate RPC/s for seconds in an open loop.
func (w *liveWorld) openPhase(r *run, seed uint64, sp *spans, rate, seconds float64) (*openResult, error) {
	res := &openResult{secs: seconds}
	pc, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pc.Close()
	debug.FreeOSMemory()
	rep, _, err := w.phase(r, seed, int(rate*seconds*1.1), sp, func(ss []*stream) {
		start := wallNS() + int64(2*time.Millisecond)
		res.start = start
		fns := []func(){func() { sendAll(ss, res.plans, pc) }}
		for _, s := range ss {
			p := s.plan(rate, seconds, start)
			res.plans = append(res.plans, p)
			fns = append(fns, func() { s.receive(p) })
		}
		runParallel(fns...)
	})
	if err != nil {
		return nil, err
	}
	res.rep = rep
	for _, p := range res.plans {
		for _, at := range p.sendAt {
			if at == 0 { // never sent: the generator failed first
				r.attempted++
				r.failed++
			}
		}
	}
	type dueLat struct{ due, lat int64 }
	var all []dueLat
	for _, p := range res.plans {
		for i := range p.due {
			if p.due[i] < res.start+liveOpenWarm {
				continue
			}
			l := int64(math.MaxInt64)
			if p.ok[i] {
				l = p.recvAt[i] - p.due[i]
			}
			all = append(all, dueLat{p.due[i], l})
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("open loop at %.0f RPC/s for %.2fs planned no requests", rate, seconds)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	var tailSum float64
	tailN := max(1, len(all)/10)
	for _, d := range all[len(all)-tailN:] {
		tailSum += float64(d.lat)
	}
	res.tail = int64(min(tailSum/float64(tailN), math.MaxInt64/2))
	res.windows = make([][]int64, liveWindows)
	res.samples = len(all)
	for i, d := range all {
		w := i * liveWindows / len(all)
		res.windows[w] = append(res.windows[w], d.lat)
	}
	for _, w := range res.windows {
		sortNS(w)
	}
	return res, nil
}

// stageDurations splits one traced request's latency, from its due
// time to the client's decode of the reply, into rx (due to Steer:
// generator lateness, write, read and decode), queue (Steer to handler
// start), service (the handler) and tx (handler end to client decode).
// They sum to recv-due exactly.
func stageDurations(due, steer, start, end, recv int64) [4]int64 {
	return [4]int64{steer - due, start - steer, end - start, recv - end}
}

// recordStages checks and summarises the traced open loop's spans.
func recordStages(r *run, res *openResult, sp *spans) {
	var late []int64
	var st [4][]int64
	for c, p := range res.plans {
		for i := range p.due {
			if !p.ok[i] {
				continue
			}
			id := uint64(i)*liveConns + uint64(c)
			j := id & sp.mask
			d := stageDurations(p.due[i], sp.steer[j], sp.start[j], sp.end[j], p.recvAt[i])
			var sum int64
			for s, v := range d {
				if v < 0 {
					r.fail("request %d: negative stage %d (%d ns)", id, s, v)
				}
				sum += v
				st[s] = append(st[s], v)
			}
			if sum != p.recvAt[i]-p.due[i] {
				r.fail("request %d: stages sum to %d ns, latency %d ns", id, sum, p.recvAt[i]-p.due[i])
			}
			late = append(late, p.sendAt[i]-p.due[i])
		}
	}
	put := func(name string, xs []int64) {
		sortNS(xs)
		r.metrics[name+"_p50"] = float64(quantileNS(xs, 0.50)) / 1e3
		r.metrics[name+"_p99"] = float64(quantileNS(xs, 0.99)) / 1e3
	}
	put("live.gen_late_us", late)
	put("live.rx_us", st[0])
	put("live.queue_us", st[1])
	put("live.service_us", st[2])
	put("live.tx_us", st[3])
}

// writeSpans writes the traced open loop's per-request stamps (wall ns
// since process start) as CSV next to the benchmark binary, which
// run.sh builds inside the checkout.
func writeSpans(seed uint64, res *openResult, sp *spans) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-live-kv-seed%d.csv", seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,op,due,send,steer,start,end,recv,ok")
	for c, p := range res.plans {
		for i := range p.due {
			id := uint64(i)*liveConns + uint64(c)
			j := id & sp.mask
			fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d,%d,%t\n", id, p.op[i], p.due[i], p.sendAt[i],
				sp.steer[j], sp.start[j], sp.end[j], p.recvAt[i], p.ok[i])
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}

// liveSetup builds the world and runs the warm round: preload, runtime
// start, dialling and liveWarm closed-loop requests.
func liveSetup(r *run, seed uint64) (*liveWorld, error) {
	w, err := newLiveWorld()
	if err != nil {
		return nil, err
	}
	_, _, err = w.phase(r, seed, liveWarm, nil, func(ss []*stream) {
		var fns []func()
		for _, s := range ss {
			fns = append(fns, func() {
				s.closedLoop(func() bool { return s.sent >= liveWarm/liveConns },
					procStart.Add(time.Duration(wallNS())+30*time.Second))
			})
		}
		runParallel(fns...)
	})
	return w, err
}

func runLiveKV(o opts, r *run) error {
	var setups []float64
	var w *liveWorld
	for i := 0; i < setupRounds; i++ {
		w = nil
		debug.FreeOSMemory()
		t0 := wallNS()
		var err error
		if w, err = liveSetup(r, o.seed+uint64(i)*7919); err != nil {
			return err
		}
		setups = append(setups, float64(wallNS()-t0)/1e9)
	}
	r.metrics["setup_s"] = median(setups)
	r.info["offered_rps"] = liveRate
	r.info["closed_window"] = liveWindow
	seed := o.seed * 1_000_003

	if !o.trace {
		rps, _, err := w.closedPhase(r, seed, nil, o.seconds)
		if err != nil {
			return err
		}
		r.metrics["host_ns_per_req"] = 1e9 / rps
		return nil
	}

	// Traced: a plain closed loop, the same under the stage hooks and the
	// CPU profiler, a traced open loop at the fixed rate, then the ladder.
	plain, _, err := w.closedPhase(r, seed, nil, o.seconds*0.2)
	if err != nil {
		return err
	}
	r.metrics["live.closed_rps"] = plain
	var prof bytes.Buffer
	m0 := readMem()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	traced, done, err := w.closedPhase(r, seed+1, newSpans(1<<16), o.seconds*0.2)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	m1 := readMem()
	reqs := float64(done)
	r.recordAllocs(m0, m1, reqs)
	r.metrics["trace_overhead_pct"] = (plain/traced - 1) * 100
	self, err := moduleSelfNS(prof.Bytes())
	if err != nil {
		return err
	}
	for _, m := range profiledModules {
		r.metrics[m+".self_ns"] = float64(self[m]) / reqs
	}

	sp := newSpans(int(liveRate*o.seconds) + 1)
	res, err := w.openPhase(r, seed+2, sp, liveRate, o.seconds*0.3)
	if err != nil {
		return err
	}
	recordStages(r, res, sp)
	path, err := writeSpans(o.seed, res, sp)
	if err != nil {
		return err
	}
	r.info["spans_csv"] = path
	r.metrics["live.p50_us"] = res.windowQuantileUS(0.50)
	r.metrics["live.p99_us"] = res.windowQuantileUS(0.99)
	r.info["open_samples"] = res.samples
	rep := res.rep
	us := func(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }
	r.metrics["live.server_sojourn_us_p99"] = us(rep.P99)
	r.metrics["live.ticks_per_s"] = float64(rep.Stats.Ticks) / res.secs
	if rep.Stats.Completed > 0 {
		r.metrics["live.migrated_pct"] = float64(rep.Stats.MigratedReqs) / float64(rep.Stats.Completed) * 100
	}
	if tried := rep.Stats.MigratedReqs + rep.Stats.NackedReqs; tried > 0 {
		r.metrics["live.nack_ratio"] = float64(rep.Stats.NackedReqs) / float64(tried)
	}

	// Each rung runs at least a second, so it measures past its warm-up.
	rung := max(o.seconds*0.3/float64(len(liveLadder)), 1)
	for i, rate := range liveLadder {
		res, err := w.openPhase(r, seed+3+uint64(i), nil, rate, rung)
		if err != nil {
			return err
		}
		if !res.meets() {
			break
		}
		r.metrics["live.rps_at_slo"] = rate
	}
	return nil
}
