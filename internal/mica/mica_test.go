package mica

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func smallStore(t *testing.T, partitions int) *Store {
	t.Helper()
	s, err := NewStore(Config{
		Partitions:       partitions,
		BucketsPerPart:   64,
		EntriesPerBucket: 8,
		LogBytesPerPart:  1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetGetRoundTrip(t *testing.T) {
	s := smallStore(t, 4)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("value-%04d", i))
		if err := s.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v, ok := s.Get(k)
		if !ok {
			t.Fatalf("miss for %s", k)
		}
		if string(v) != fmt.Sprintf("value-%04d", i) {
			t.Fatalf("wrong value: %s", v)
		}
	}
	st := s.Stats()
	if st.Sets != 100 || st.GetHits != 100 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGetMiss(t *testing.T) {
	s := smallStore(t, 1)
	if _, ok := s.Get([]byte("nope")); ok {
		t.Fatal("phantom hit")
	}
}

func TestOverwrite(t *testing.T) {
	s := smallStore(t, 1)
	k := []byte("k")
	s.Set(k, []byte("v1"))
	s.Set(k, []byte("v2"))
	v, ok := s.Get(k)
	if !ok || string(v) != "v2" {
		t.Fatalf("got %q ok=%v", v, ok)
	}
}

func TestPartitionStability(t *testing.T) {
	s := smallStore(t, 8)
	k := []byte("some-key")
	p := s.Partition(k)
	for i := 0; i < 10; i++ {
		if s.Partition(k) != p {
			t.Fatal("partition not stable")
		}
	}
	if s.Partitions() != 8 {
		t.Fatal("partitions")
	}
	// Keys spread across partitions.
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[s.Partition([]byte(fmt.Sprintf("key-%d", i)))]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("partition %d has %d of 8000", i, c)
		}
	}
}

func TestLogWraparoundIsLossyNotCorrupt(t *testing.T) {
	// Fill a 64KB log several times over; old keys may miss but must
	// never return wrong bytes.
	s := smallStore(t, 1)
	val := make([]byte, 512)
	const n = 1000 // ~520KB total, 8x the log
	for i := 0; i < n; i++ {
		for j := range val {
			val[j] = byte(i)
		}
		if err := s.Set([]byte(fmt.Sprintf("key-%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	hits := 0
	for i := 0; i < n; i++ {
		v, ok := s.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if !ok {
			continue
		}
		hits++
		for _, b := range v {
			if b != byte(i) {
				t.Fatalf("corrupt value for key %d", i)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no hits at all after wraparound")
	}
	if hits == n {
		t.Fatal("lossy store retained everything despite 8x overflow")
	}
	// Recent keys must survive.
	if _, ok := s.Get([]byte(fmt.Sprintf("key-%05d", n-1))); !ok {
		t.Fatal("most recent key evicted")
	}
}

func TestIndexEviction(t *testing.T) {
	// Tiny index (1 bucket x 2 entries) forces evictions.
	s, err := NewStore(Config{Partitions: 1, BucketsPerPart: 1, EntriesPerBucket: 2, LogBytesPerPart: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	if s.Stats().IndexEvictions == 0 {
		t.Fatal("expected index evictions")
	}
	// The newest key is always retrievable.
	if _, ok := s.Get([]byte("k9")); !ok {
		t.Fatal("newest key lost")
	}
}

func TestScan(t *testing.T) {
	s := smallStore(t, 2)
	for i := 0; i < 50; i++ {
		s.Set([]byte(fmt.Sprintf("key-%02d", i)), []byte("value"))
	}
	seen := 0
	n := s.Scan(0, 1000, func(k, v []byte) {
		seen++
		if string(v) != "value" {
			t.Fatalf("scan got %q", v)
		}
	})
	if n != seen || n == 0 {
		t.Fatalf("scan visited %d (cb %d)", n, seen)
	}
	// Bounded scan.
	if got := s.Scan(0, 3, nil); got > 3 {
		t.Fatalf("bounded scan visited %d", got)
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	s, _ := NewStore(Config{Partitions: 1, BucketsPerPart: 4, EntriesPerBucket: 2, LogBytesPerPart: 2048})
	if err := s.Set([]byte("k"), make([]byte, 4096)); err == nil {
		t.Fatal("oversize set should fail")
	}
}

func TestNewStoreValidation(t *testing.T) {
	bad := []Config{
		{},
		{Partitions: 1},
		{Partitions: 1, BucketsPerPart: 4, EntriesPerBucket: 1, LogBytesPerPart: 10},
	}
	for i, cfg := range bad {
		if _, err := NewStore(cfg); err == nil {
			t.Fatalf("config %d should fail", i)
		}
	}
}

func TestGetAfterSetProperty(t *testing.T) {
	// Property: immediately after Set(k,v), Get(k) returns v (the newest
	// write wins; no interleaving writers in EREW).
	s := smallStore(t, 4)
	f := func(key, val []byte) bool {
		if len(key) == 0 || len(key) > 64 || len(val) > 1024 {
			return true // outside supported shape
		}
		if err := s.Set(key, val); err != nil {
			return false
		}
		got, ok := s.Get(key)
		if !ok {
			return false
		}
		return string(got) == string(val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOpCost(t *testing.T) {
	oc := DefaultOpCost(fabric.Default())
	get := oc.Time(rpcproto.OpGet, 512, false)
	set := oc.Time(rpcproto.OpSet, 512, false)
	scan := oc.Time(rpcproto.OpScan, 0, false)
	// Paper anchors: ~50ns GET/SET, ~50us SCAN.
	if get < 40*sim.Nanosecond || get > 70*sim.Nanosecond {
		t.Fatalf("GET = %v", get)
	}
	if set >= get {
		t.Fatalf("SET (%v) should be cheaper than GET (%v)", set, get)
	}
	if scan < 40*sim.Microsecond || scan > 60*sim.Microsecond {
		t.Fatalf("SCAN = %v", scan)
	}
	// Migrated EREW requests pay a remote access.
	if oc.Time(rpcproto.OpGet, 512, true) <= get {
		t.Fatal("remote penalty missing")
	}
	if oc.Time(rpcproto.OpEcho, 0, false) != oc.GetBase {
		t.Fatal("echo fallback")
	}
}

// BenchmarkStoreOps sizes the data path at the paper's shape: 16 B keys
// and 512 B values over 100k preloaded keys.
func BenchmarkStoreOps(b *testing.B) {
	const keys = 100000
	s, _ := NewStore(DefaultConfig(4))
	val := make([]byte, 512)
	ks := make([][]byte, keys)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("key-%011d", i))
		s.Set(ks[i], val)
	}
	b.Run("Set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Set(ks[i%keys], val)
		}
	})
	b.Run("Get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Get(ks[i%keys])
		}
	})
	b.Run("AppendGet", func(b *testing.B) {
		buf := make([]byte, 0, 512)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = s.AppendGet(buf[:0], ks[i%keys])
		}
	})
	b.Run("Scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Scan(i%s.Partitions(), 256, nil)
		}
	})
}

func TestStoreZeroAlloc(t *testing.T) {
	s := smallStore(t, 2)
	key, val := []byte("key-0123456789ab"), make([]byte, 512)
	for i := 0; i < 400; i++ {
		s.Set([]byte(fmt.Sprintf("key-%012d", i)), val) // wrap both 64 KiB logs
	}
	if avg := testing.AllocsPerRun(100, func() { _ = s.Set(key, val) }); avg != 0 {
		t.Fatalf("Set allocates %.1f times per op, want 0", avg)
	}
	buf := make([]byte, 0, len(val))
	if avg := testing.AllocsPerRun(100, func() {
		var ok bool
		if buf, ok = s.AppendGet(buf[:0], key); !ok {
			t.Fatal("miss")
		}
	}); avg != 0 {
		t.Fatalf("AppendGet allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if s.Scan(s.Partition(key), 64, nil) == 0 {
			t.Fatal("empty scan")
		}
	}); avg != 0 {
		t.Fatalf("Scan allocates %.1f times per op, want 0", avg)
	}
}

func TestEqualAtAcrossWrap(t *testing.T) {
	p := &partition{log: []byte("abcdefghijklmnop")}
	// Absolute offset 28 is log index 12: the 8 bytes there wrap to
	// "mnop" + "abcd".
	for _, c := range []struct {
		key  string
		want bool
	}{
		{"mnopabcd", true},
		{"mnop", true},
		{"mnopa", true},
		{"xnopabcd", false}, // differs before the wrap
		{"mnopabcx", false}, // differs after the wrap
		{"mnopxbcd", false}, // differs at the wrap
	} {
		if got := p.equalAt(28, []byte(c.key)); got != c.want {
			t.Errorf("equalAt(28, %q) = %v, want %v", c.key, got, c.want)
		}
	}
}

// refStore is the original byte-at-a-time store: every log byte moves
// through a modulo, every probe decodes a freshly allocated key and
// value, and each operation hashes its key twice. It is the oracle the
// bulk data path must match byte for byte and counter for counter.
type refStore struct {
	parts []*refPartition
}

type refPartition struct {
	mask       uint64
	perB       int
	index      []indexEntry
	log        []byte
	head, tail uint64
	stats      Stats
}

func newRefStore(cfg Config) *refStore {
	buckets := 1
	for buckets < cfg.BucketsPerPart {
		buckets <<= 1
	}
	s := &refStore{}
	for i := 0; i < cfg.Partitions; i++ {
		s.parts = append(s.parts, &refPartition{
			mask:  uint64(buckets - 1),
			perB:  cfg.EntriesPerBucket,
			index: make([]indexEntry, buckets*cfg.EntriesPerBucket),
			log:   make([]byte, cfg.LogBytesPerPart),
		})
	}
	return s
}

func (s *refStore) partition(key []byte) int {
	return int(hash64(key) % uint64(len(s.parts)))
}

func (s *refStore) set(key, value []byte) error {
	return s.parts[s.partition(key)].set(key, value)
}

func (s *refStore) get(key []byte) ([]byte, bool) {
	return s.parts[s.partition(key)].get(key)
}

func (p *refPartition) bucket(h uint64) []indexEntry {
	b := int(h & p.mask)
	return p.index[b*p.perB : (b+1)*p.perB]
}

func (p *refPartition) set(key, value []byte) error {
	size := entryHeader + len(key) + len(value)
	if int64(size) > int64(len(p.log)) {
		return fmt.Errorf("mica: entry of %d bytes exceeds log capacity", size)
	}
	p.reserve(uint64(size))
	off := p.tail
	var hdr [entryHeader]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(value)))
	p.append(hdr[:])
	p.append(key)
	p.append(value)

	h := hash64(key)
	tag := tagOf(h)
	b := p.bucket(h)
	victim := 0
	for i := range b {
		if b[i].tag == tag {
			if k, _, ok := p.readAt(b[i].offset); ok && string(k) == string(key) {
				victim = i
				break
			}
		}
		if b[i].tag == 0 {
			victim = i
			break
		}
		if b[i].offset < b[victim].offset {
			victim = i
		}
	}
	if b[victim].tag != 0 {
		p.stats.IndexEvictions++
	}
	b[victim] = indexEntry{tag: tag, offset: off}
	p.stats.Sets++
	return nil
}

func (p *refPartition) get(key []byte) ([]byte, bool) {
	p.stats.Gets++
	h := hash64(key)
	tag := tagOf(h)
	for _, e := range p.bucket(h) {
		if e.tag != tag {
			continue
		}
		k, v, ok := p.readAt(e.offset)
		if !ok {
			p.stats.LogRecycles++
			continue
		}
		if string(k) == string(key) {
			p.stats.GetHits++
			out := make([]byte, len(v))
			copy(out, v)
			return out, true
		}
	}
	return nil, false
}

func (p *refPartition) reserve(size uint64) {
	logSize := uint64(len(p.log))
	for p.tail+size-p.head > logSize {
		var hdr [entryHeader]byte
		p.copyOut(hdr[:], p.head)
		klen := uint64(binary.LittleEndian.Uint16(hdr[0:2]))
		vlen := uint64(binary.LittleEndian.Uint32(hdr[2:6]))
		p.head += entryHeader + klen + vlen
		if p.head > p.tail {
			p.head = p.tail
			return
		}
	}
}

func (p *refPartition) readAt(off uint64) (key, value []byte, ok bool) {
	if off < p.head || off+entryHeader > p.tail {
		return nil, nil, false
	}
	var hdr [entryHeader]byte
	p.copyOut(hdr[:], off)
	klen := uint64(binary.LittleEndian.Uint16(hdr[0:2]))
	vlen := uint64(binary.LittleEndian.Uint32(hdr[2:6]))
	end := off + entryHeader + klen + vlen
	if end > p.tail {
		return nil, nil, false
	}
	key = make([]byte, klen)
	value = make([]byte, vlen)
	p.copyOut(key, off+entryHeader)
	p.copyOut(value, off+entryHeader+klen)
	return key, value, true
}

func (p *refPartition) scan(n int, fn func(key, value []byte)) int {
	visited := 0
	off := p.head
	for off < p.tail && visited < n {
		k, v, ok := p.readAt(off)
		if !ok {
			break
		}
		if fn != nil {
			fn(k, v)
		}
		visited++
		off += entryHeader + uint64(len(k)) + uint64(len(v))
	}
	return visited
}

func (p *refPartition) append(b []byte) {
	logSize := uint64(len(p.log))
	for _, c := range b {
		p.log[p.tail%logSize] = c
		p.tail++
	}
}

func (p *refPartition) copyOut(dst []byte, off uint64) {
	logSize := uint64(len(p.log))
	for i := range dst {
		dst[i] = p.log[(off+uint64(i))%logSize]
	}
}

// opKeys is the differential key set: keys of 1 to 40 bytes, so entries
// of every shape straddle the wrap of a 1-4 KiB log, plus two distinct
// equal-length keys sharing a tag, so in-place compares must reject a
// tag match whose bytes differ.
var opKeys = func() [][]byte {
	var keys [][]byte
	for i := 0; i < 30; i++ {
		k := make([]byte, 1+(i*7)%40)
		for j := range k {
			k[j] = byte('a' + (i+j)%26)
		}
		keys = append(keys, k)
	}
	seen := map[uint16][]byte{}
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("tag-%08d", i))
		t := tagOf(hash64(k))
		if prev, ok := seen[t]; ok {
			return append(keys, prev, k)
		}
		seen[t] = k
	}
}()

// runStoreOps decodes ops into a store shape and an operation sequence,
// drives it through both the bulk store and refStore, and fails on the
// first divergence. Bytes 0-3 pick 1-3 partitions, a 1-4 KiB log, 1-8
// buckets and 1-4 entries per bucket; every following 3-byte group is
// one Set, Get, AppendGet or Scan.
func runStoreOps(t *testing.T, ops []byte) {
	if len(ops) < 4 {
		return
	}
	cfg := Config{
		Partitions:       1 + int(ops[0]%3),
		LogBytesPerPart:  1024 * (1 + int64(ops[1]%4)),
		BucketsPerPart:   1 << (ops[2] % 4),
		EntriesPerBucket: 1 + int(ops[3]%4),
	}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefStore(cfg)
	var got, want []byte
	for i := 4; i+3 <= len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		key := opKeys[int(a)%len(opKeys)]
		switch op % 5 {
		case 0, 1:
			val := bytes.Repeat([]byte{a ^ b}, int(b)*5) // up to 1275 B: some exceed a 1 KiB log
			gerr, werr := s.Set(key, val), ref.set(key, val)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("op %d: Set(%q) err %v, reference %v", i, key, gerr, werr)
			}
		case 2:
			v, ok := s.Get(key)
			rv, rok := ref.get(key)
			if ok != rok || !bytes.Equal(v, rv) {
				t.Fatalf("op %d: Get(%q) = %d B %v, reference %d B %v", i, key, len(v), ok, len(rv), rok)
			}
		case 3:
			// Odd b hands AppendGet room to fill in place, even b
			// makes it grow the buffer.
			dst := make([]byte, 1, 1+int(b%2)*1300)
			dst[0] = b
			v, ok := s.AppendGet(dst, key)
			rv, rok := ref.get(key)
			if ok != rok || !bytes.Equal(v, append([]byte{b}, rv...)) {
				t.Fatalf("op %d: AppendGet(%q) = %d B %v, reference %d B %v", i, key, len(v), ok, len(rv), rok)
			}
		case 4:
			part, n := int(a)%len(ref.parts), int(b%32)
			if op&8 == 0 {
				if g, w := s.Scan(part, n, nil), ref.parts[part].scan(n, nil); g != w {
					t.Fatalf("op %d: Scan(%d, %d) = %d, reference %d", i, part, n, g, w)
				}
				break
			}
			got, want = got[:0], want[:0]
			g := s.Scan(part, n, func(k, v []byte) { got = append(append(got, k...), v...) })
			w := ref.parts[part].scan(n, func(k, v []byte) { want = append(append(want, k...), v...) })
			if g != w || !bytes.Equal(got, want) {
				t.Fatalf("op %d: Scan(%d, %d) = %d entries, reference %d (bytes equal %v)", i, part, n, g, w, bytes.Equal(got, want))
			}
		}
		for pi, p := range s.parts {
			rp := ref.parts[pi]
			if p.head != rp.head || p.tail != rp.tail || p.stats != rp.stats {
				t.Fatalf("op %d partition %d: head/tail %d/%d stats %+v, reference %d/%d %+v",
					i, pi, p.head, p.tail, p.stats, rp.head, rp.tail, rp.stats)
			}
			if !bytes.Equal(p.log, rp.log) || !slices.Equal(p.index, rp.index) {
				t.Fatalf("op %d partition %d: log or index bytes differ from the reference", i, pi)
			}
		}
	}
}

func TestStoreMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		ops := make([]byte, 4+3*1000)
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		if !t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runStoreOps(t, ops) }) {
			break
		}
	}
}

func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 100, 2, 1, 0, 4, 0, 31})
	f.Add([]byte{2, 3, 3, 3, 1, 30, 200, 1, 31, 200, 2, 30, 0, 3, 31, 1, 12, 0, 9})
	f.Fuzz(runStoreOps)
}
