// Package mica implements an in-memory key-value store modelled on MICA
// (Lim et al., NSDI'14), the end-to-end application of §IX: EREW-mode
// partitioned storage where each partition pairs a lossy bucketized hash
// index with a circular append log. GET/SET operations execute for real
// over real bytes; the simulator separately charges a modelled on-CPU
// duration per operation (OpCost).
package mica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Config sizes the store. The paper's defaults: 2M hash buckets and a
// 4 GB circular log overall; tests use much smaller instances.
type Config struct {
	Partitions       int   // EREW key partitions (one per manager thread)
	BucketsPerPart   int   // hash buckets per partition (rounded up to a power of two)
	EntriesPerBucket int   // index slots per bucket
	LogBytesPerPart  int64 // circular log capacity per partition
}

// DefaultConfig returns a laptop-scale configuration preserving MICA's
// structure (lossy index + circular log).
func DefaultConfig(partitions int) Config {
	return Config{
		Partitions:       partitions,
		BucketsPerPart:   1 << 15,
		EntriesPerBucket: 8,
		LogBytesPerPart:  32 << 20,
	}
}

// Stats counts store activity.
type Stats struct {
	Gets, GetHits  uint64
	Sets           uint64
	IndexEvictions uint64 // bucket-full replacements (lossy index)
	LogRecycles    uint64 // entries invalidated by log wraparound on read
}

type indexEntry struct {
	tag    uint16 // partial key hash, 0 means empty
	offset uint64 // log offset of the entry
}

// entry layout in the log: keyLen(2) valLen(4) key val.
const entryHeader = 6

type partition struct {
	mask  uint64
	perB  int
	index []indexEntry
	log   []byte
	head  uint64 // oldest complete entry still resident
	tail  uint64 // monotonically increasing append position
	stats Stats
}

// Store is an EREW-partitioned MICA instance. Each partition is owned by
// exactly one manager thread (no concurrency control, matching EREW);
// the Store itself is not safe for concurrent writers to one partition.
//
// The data path is bulk and allocation-free: log appends and reads are
// at most two copies split at the wrap point, index probes decode only
// the entry header and compare the key in place, and each operation
// hashes its key once. Get returns an owned copy of the value (the one
// allocation a hit makes); AppendGet appends the value to a caller-owned
// buffer instead, and Set and a Scan with a nil callback never allocate.
type Store struct {
	cfg   Config
	parts []*partition
}

// NewStore builds a store. Errors on nonsensical sizes.
func NewStore(cfg Config) (*Store, error) {
	if cfg.Partitions < 1 {
		return nil, errors.New("mica: need at least one partition")
	}
	if cfg.BucketsPerPart < 1 || cfg.EntriesPerBucket < 1 {
		return nil, errors.New("mica: need positive index dimensions")
	}
	if cfg.LogBytesPerPart < 1024 {
		return nil, errors.New("mica: log too small")
	}
	buckets := 1
	for buckets < cfg.BucketsPerPart {
		buckets <<= 1
	}
	s := &Store{cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		s.parts = append(s.parts, &partition{
			mask:  uint64(buckets - 1),
			perB:  cfg.EntriesPerBucket,
			index: make([]indexEntry, buckets*cfg.EntriesPerBucket),
			log:   make([]byte, cfg.LogBytesPerPart),
		})
	}
	return s, nil
}

// Partitions returns the partition count.
func (s *Store) Partitions() int { return len(s.parts) }

// Partition returns the EREW owner partition of a key.
func (s *Store) Partition(key []byte) int {
	return s.partOf(hash64(key))
}

func (s *Store) partOf(h uint64) int {
	return int(h % uint64(len(s.parts)))
}

// Set stores key -> value in the key's partition.
//
//altolint:hotpath
func (s *Store) Set(key, value []byte) error {
	h := hash64(key)
	return s.parts[s.partOf(h)].set(h, key, value)
}

// Get fetches the value for key; ok is false on miss (never stored, index
// entry evicted, or log entry recycled — MICA is lossy by design). The
// returned slice is a fresh copy the caller owns.
func (s *Store) Get(key []byte) (value []byte, ok bool) {
	h := hash64(key)
	p := s.parts[s.partOf(h)]
	off, n, ok := p.get(h, key)
	if !ok {
		return nil, false
	}
	value = make([]byte, n)
	p.copyOut(value, off)
	return value, true
}

// AppendGet appends the value for key to dst and returns the extended
// buffer. On a miss it returns dst unchanged and ok false. It allocates
// only when dst lacks the capacity for the value.
//
//altolint:hotpath
func (s *Store) AppendGet(dst, key []byte) ([]byte, bool) {
	h := hash64(key)
	p := s.parts[s.partOf(h)]
	off, n, ok := p.get(h, key)
	if !ok {
		return dst, false
	}
	dst = slices.Grow(dst, int(n))
	m := len(dst)
	dst = dst[:m+int(n)]
	p.copyOut(dst[m:], off)
	return dst, true
}

// Scan walks up to n live log entries of the key's partition, invoking fn
// for each (the long-running SCAN of §IX-D). It returns the number of
// entries visited. Key and value are materialised only when fn is
// non-nil; each call receives fresh slices it may retain.
func (s *Store) Scan(partition, n int, fn func(key, value []byte)) int {
	return s.parts[partition].scan(n, fn)
}

// Stats returns the aggregate counters across partitions.
func (s *Store) Stats() Stats {
	var out Stats
	for _, p := range s.parts {
		out.Gets += p.stats.Gets
		out.GetHits += p.stats.GetHits
		out.Sets += p.stats.Sets
		out.IndexEvictions += p.stats.IndexEvictions
		out.LogRecycles += p.stats.LogRecycles
	}
	return out
}

func (p *partition) bucket(h uint64) []indexEntry {
	b := int(h & p.mask)
	return p.index[b*p.perB : (b+1)*p.perB]
}

func tagOf(h uint64) uint16 {
	t := uint16(h >> 48)
	if t == 0 {
		t = 1 // 0 marks an empty slot
	}
	return t
}

// set appends key -> value and indexes it; h is hash64(key).
//
//altolint:hotpath
func (p *partition) set(h uint64, key, value []byte) error {
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

	tag := tagOf(h)
	b := p.bucket(h)
	// Prefer an existing slot for this tag (update), then an empty slot,
	// else evict the entry with the oldest offset (lossy index).
	victim := 0
	for i := range b {
		if b[i].tag == tag && p.holds(b[i].offset, key) {
			victim = i
			break
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

// get finds key (h is hash64(key)) and returns the log offset and length
// of its value.
//
//altolint:hotpath
func (p *partition) get(h uint64, key []byte) (off, n uint64, ok bool) {
	p.stats.Gets++
	tag := tagOf(h)
	for _, e := range p.bucket(h) {
		if e.tag != tag {
			continue
		}
		klen, vlen, ok := p.header(e.offset)
		if !ok {
			p.stats.LogRecycles++
			continue
		}
		if klen == uint64(len(key)) && p.equalAt(e.offset+entryHeader, key) {
			p.stats.GetHits++
			return e.offset + entryHeader + klen, vlen, true
		}
	}
	return 0, 0, false
}

// reserve advances head past whole entries until size bytes can be
// appended without clobbering the oldest resident entry. Called before
// the append, while the header bytes at head are still intact.
//
//altolint:hotpath
func (p *partition) reserve(size uint64) {
	logSize := uint64(len(p.log))
	for p.tail+size-p.head > logSize {
		var hdr [entryHeader]byte
		p.copyOut(hdr[:], p.head)
		klen := uint64(binary.LittleEndian.Uint16(hdr[0:2]))
		vlen := uint64(binary.LittleEndian.Uint32(hdr[2:6]))
		p.head += entryHeader + klen + vlen
		if p.head > p.tail { // corrupt walk guard; cannot happen with intact heads
			p.head = p.tail
			return
		}
	}
}

// header decodes the key and value lengths of the entry at absolute log
// offset off. ok is false when the entry has been overwritten by log
// wraparound.
//
//altolint:hotpath
func (p *partition) header(off uint64) (klen, vlen uint64, ok bool) {
	if off < p.head || off+entryHeader > p.tail {
		return 0, 0, false
	}
	var hdr [entryHeader]byte
	p.copyOut(hdr[:], off)
	klen = uint64(binary.LittleEndian.Uint16(hdr[0:2]))
	vlen = uint64(binary.LittleEndian.Uint32(hdr[2:6]))
	if off+entryHeader+klen+vlen > p.tail {
		return 0, 0, false
	}
	return klen, vlen, true
}

// holds reports whether the live entry at off stores key.
//
//altolint:hotpath
func (p *partition) holds(off uint64, key []byte) bool {
	klen, _, ok := p.header(off)
	return ok && klen == uint64(len(key)) && p.equalAt(off+entryHeader, key)
}

// equalAt compares b with the log bytes at absolute offset off, in
// place across the wrap point. len(b) must not exceed the log size.
//
//altolint:hotpath
func (p *partition) equalAt(off uint64, b []byte) bool {
	first := p.log[off%uint64(len(p.log)):]
	if len(first) >= len(b) {
		return string(first[:len(b)]) == string(b)
	}
	return string(first) == string(b[:len(first)]) &&
		string(p.log[:len(b)-len(first)]) == string(b[len(first):])
}

func (p *partition) scan(n int, fn func(key, value []byte)) int {
	visited := 0
	off := p.head
	for off < p.tail && visited < n {
		klen, vlen, ok := p.header(off)
		if !ok {
			break
		}
		if fn != nil {
			key := make([]byte, klen)
			value := make([]byte, vlen)
			p.copyOut(key, off+entryHeader)
			p.copyOut(value, off+entryHeader+klen)
			fn(key, value)
		}
		visited++
		off += entryHeader + klen + vlen
	}
	return visited
}

// append writes b at tail, split at the wrap point. len(b) must not
// exceed the log size.
//
//altolint:hotpath
func (p *partition) append(b []byte) {
	n := copy(p.log[p.tail%uint64(len(p.log)):], b)
	copy(p.log, b[n:])
	p.tail += uint64(len(b))
}

// copyOut fills dst from absolute log offset off, split at the wrap
// point. len(dst) must not exceed the log size.
//
//altolint:hotpath
func (p *partition) copyOut(dst []byte, off uint64) {
	n := copy(dst, p.log[off%uint64(len(p.log)):])
	copy(dst[n:], p.log)
}

// hash64 is FNV-1a, adequate avalanche for partitioning and tags.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
