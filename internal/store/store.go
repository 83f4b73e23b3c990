// Package store is the persistent content-addressed result cache behind
// localityd's serving path: append-only segment files plus an in-memory
// index, keyed by jobs.Spec.IdentityKey (passed in as an opaque hex string,
// so this package depends on nothing above internal/obs).
//
// The whole system is deterministic by construction (localvet-enforced), so
// a sweep table is a pure function of its identity key — which is what makes
// serving a stored record in place of a fresh computation sound: the bytes
// could not have come out differently. The store's own obligations are
// therefore purely about integrity and bounds:
//
//   - Integrity: every record is CRC-framed, and Get re-verifies the frame
//     and the embedded key on every read. A corrupt record is dropped from
//     the index and reported as a miss — the caller recomputes; the store
//     never serves bytes it cannot vouch for.
//
//   - Crash safety: writes append to the active segment with no in-place
//     mutation. A torn tail record (the process died mid-append) is detected
//     by the frame scan on Open and truncated away; every record before it
//     survives.
//
//   - Bounded retention: segments are evicted oldest-first (FIFO) whenever
//     the byte budget is exceeded, mirroring the hashed-identity /
//     bounded-FIFO retention idiom used across the repo. The active segment
//     is never evicted.
//
//   - Versioning: the directory carries a VERSION file. A mismatch (schema
//     evolved, or a foreign directory) invalidates the cache wholesale —
//     segments are removed and the store starts empty — because records
//     written under another schema cannot be trusted to mean the same thing.
//
// Concurrency: a Store is safe for concurrent use; one mutex serializes the
// index and file operations (file I/O through package os is not a blocking
// operation under the mutexhold contract). The package never reads the
// clock except for the stored-at stamp leaf in leaves.go, which is operator
// telemetry and is never read back into results.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"locality/internal/obs"
)

// SchemaVersion is the on-disk layout version. Bump it when the record
// encoding (or the meaning of any encoded field, including the identity key
// schema upstream) changes: a store opened under a different version is
// invalidated wholesale rather than reinterpreted.
const SchemaVersion = "locality-store/v2"

const (
	versionFile = "VERSION"
	segPrefix   = "seg-"
	segSuffix   = ".log"

	// headerLen frames every record: 4-byte big-endian payload length,
	// 4-byte IEEE CRC32 of the payload.
	headerLen = 8
	// maxRecordBytes sanity-bounds the length prefix so a corrupt header
	// cannot demand an absurd allocation during recovery.
	maxRecordBytes = 64 << 20

	// DefaultMaxBytes is the byte budget when Options.MaxBytes is zero.
	DefaultMaxBytes = 256 << 20
	// DefaultSegmentBytes is the roll threshold when Options.SegmentBytes
	// is zero. Smaller segments evict in finer grain; larger ones amortize
	// file handles.
	DefaultSegmentBytes = 4 << 20
)

// Options configures a Store.
type Options struct {
	// Dir is the segment directory (required; created if missing).
	Dir string
	// MaxBytes bounds the total size of all segment files. When an append
	// pushes past it, whole segments are evicted oldest-first until the
	// store fits (the active segment is never evicted). <=0 selects
	// DefaultMaxBytes.
	MaxBytes int64
	// SegmentBytes is the active segment's roll threshold. <=0 selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Metrics, when non-nil, receives locality_store_{hits,misses,
	// evictions,bytes}_total. Nil disables instrumentation at zero cost.
	Metrics *obs.Registry
}

func (o Options) maxBytes() int64 {
	if o.MaxBytes > 0 {
		return o.MaxBytes
	}
	return DefaultMaxBytes
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return DefaultSegmentBytes
}

// Result is one cached sweep outcome: the rendered table and the batch
// count the snapshot replays (see jobs.Job).
type Result struct {
	Output  string `json:"output"`
	Batches int    `json:"batches"`
}

// record is the persisted payload. The key is embedded so a read can verify
// the index entry still points at the record it was built from, and the
// stored-at stamp is operator telemetry (never read back into results).
// Key and Output are bytes, which encoding/json writes as base64, so they
// round-trip exactly even when they are not valid UTF-8 (a JSON string
// would replace each invalid byte with U+FFFD).
type record struct {
	Key             []byte `json:"key"`
	Output          []byte `json:"output"`
	Batches         int    `json:"batches"`
	StoredUnixNanos int64  `json:"stored_unix_nanos"`
}

// Frame-scan sentinels: truncated means the buffer ends mid-record (a torn
// tail — recovery truncates there); corrupt means the frame is internally
// inconsistent (bad CRC, absurd length, unparseable payload).
var (
	errTruncated = errors.New("store: truncated record")
	errCorrupt   = errors.New("store: corrupt record")
)

// encodeRecord frames one record: length, CRC, JSON payload.
func encodeRecord(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("store: record %d bytes exceeds bound %d", len(payload), maxRecordBytes)
	}
	frame := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[headerLen:], payload)
	return frame, nil
}

// decodeRecord reads one framed record from the front of buf, returning the
// record and the number of bytes consumed. errTruncated distinguishes a
// clean-cut tail from errCorrupt's integrity failures.
func decodeRecord(buf []byte) (record, int, error) {
	if len(buf) < headerLen {
		return record{}, 0, errTruncated
	}
	n := int(binary.BigEndian.Uint32(buf[0:4]))
	if n == 0 || n > maxRecordBytes {
		return record{}, 0, errCorrupt
	}
	if len(buf) < headerLen+n {
		return record{}, 0, errTruncated
	}
	payload := buf[headerLen : headerLen+n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(buf[4:8]) {
		return record{}, 0, errCorrupt
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return record{}, 0, errCorrupt
	}
	return rec, headerLen + n, nil
}

// entry locates one live record: which segment, at what offset, how many
// framed bytes.
type entry struct {
	seq uint64
	off int64
	n   int
}

// segment is one append-only log file. The last element of Store.segs is
// the active segment; earlier ones are sealed.
type segment struct {
	seq  uint64
	path string
	f    *os.File
	size int64
}

// Store is the cache. Create with Open, shut down with Close.
type Store struct {
	opts    Options
	metrics storeMetrics

	mu    sync.Mutex
	segs  []*segment // ascending seq; last is active
	index map[string]entry
	total int64 // sum of segment sizes on disk
}

type storeMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	bytes     *obs.Gauge
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	return storeMetrics{
		hits:      reg.Counter("locality_store_hits_total", "Result-store lookups answered from cache."),
		misses:    reg.Counter("locality_store_misses_total", "Result-store lookups finding no usable record."),
		evictions: reg.Counter("locality_store_evictions_total", "Cached records dropped by byte-budget segment eviction."),
		bytes:     reg.Gauge("locality_store_bytes_total", "Live bytes across the store's segment files."),
	}
}

// Open loads (or creates) the store under o.Dir: version check, segment
// scan with torn-tail recovery, index rebuild, and an eviction pass in case
// the budget shrank since the last run.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("store: dir required")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		opts:    o,
		metrics: newStoreMetrics(o.Metrics),
		index:   make(map[string]entry),
	}
	if err := s.checkVersion(); err != nil {
		return nil, err
	}
	if err := s.loadSegments(); err != nil {
		s.Close()
		return nil, err
	}
	if len(s.segs) == 0 {
		if err := s.addSegment(1); err != nil {
			return nil, err
		}
	}
	s.evictLocked()
	s.metrics.bytes.Set(s.total)
	return s, nil
}

// checkVersion enforces the on-disk schema: a missing VERSION is written, a
// mismatched one invalidates every segment (records under another schema
// cannot be trusted to mean the same thing).
func (s *Store) checkVersion() error {
	path := filepath.Join(s.opts.Dir, versionFile)
	data, err := os.ReadFile(path)
	switch {
	case err == nil && strings.TrimSpace(string(data)) == SchemaVersion:
		return nil
	case err == nil || os.IsNotExist(err):
		if err == nil { // mismatch: wipe the segments
			paths, _ := filepath.Glob(filepath.Join(s.opts.Dir, segPrefix+"*"+segSuffix))
			for _, p := range paths {
				os.Remove(p)
			}
		}
		if werr := os.WriteFile(path, []byte(SchemaVersion+"\n"), 0o644); werr != nil {
			return fmt.Errorf("store: writing version: %w", werr)
		}
		return nil
	default:
		return fmt.Errorf("store: reading version: %w", err)
	}
}

// loadSegments scans every segment in sequence order, indexing valid
// records (later writes of a key override earlier ones) and truncating each
// file at its first invalid frame — torn tails die here, on Open, so no
// later read can trip over them.
func (s *Store) loadSegments() error {
	paths, err := filepath.Glob(filepath.Join(s.opts.Dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sort.Strings(paths) // zero-padded names: lexical == numeric
	for _, path := range paths {
		base := filepath.Base(path)
		seq, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(base, segPrefix), segSuffix), 10, 64)
		if perr != nil {
			continue // not ours; leave it alone
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return fmt.Errorf("store: %w", rerr)
		}
		good := int64(0)
		for off := 0; off < len(data); {
			rec, n, derr := decodeRecord(data[off:])
			if derr != nil {
				break
			}
			s.index[string(rec.Key)] = entry{seq: seq, off: int64(off), n: n}
			off += n
			good = int64(off)
		}
		if good < int64(len(data)) {
			if terr := os.Truncate(path, good); terr != nil {
				return fmt.Errorf("store: truncating torn tail: %w", terr)
			}
		}
		f, oerr := os.OpenFile(path, os.O_RDWR, 0o644)
		if oerr != nil {
			return fmt.Errorf("store: %w", oerr)
		}
		s.segs = append(s.segs, &segment{seq: seq, path: path, f: f, size: good})
		s.total += good
	}
	return nil
}

// addSegment creates and activates the segment with the given sequence
// number. Callers hold the mutex (or own the store exclusively, in Open).
func (s *Store) addSegment(seq uint64) error {
	path := filepath.Join(s.opts.Dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segs = append(s.segs, &segment{seq: seq, path: path, f: f})
	return nil
}

// segByID resolves an index entry's segment; callers hold the mutex.
func (s *Store) segByID(seq uint64) *segment {
	for _, seg := range s.segs {
		if seg.seq == seq {
			return seg
		}
	}
	return nil
}

// Get returns the cached result for key. Every read re-verifies the frame
// (CRC and embedded key) — a record that fails verification is dropped from
// the index and reported as a miss, never served. Hit/miss accounting lives
// here so every consulting path (submit, coordinator) is counted.
func (s *Store) Get(key string) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		s.metrics.misses.Inc()
		return Result{}, false
	}
	seg := s.segByID(e.seq)
	if seg == nil {
		delete(s.index, key)
		s.metrics.misses.Inc()
		return Result{}, false
	}
	buf := make([]byte, e.n)
	_, rerr := seg.f.ReadAt(buf, e.off)
	rec, _, derr := decodeRecord(buf)
	if rerr != nil || derr != nil || string(rec.Key) != key {
		delete(s.index, key)
		s.metrics.misses.Inc()
		return Result{}, false
	}
	s.metrics.hits.Inc()
	return Result{Output: string(rec.Output), Batches: rec.Batches}, true
}

// Put stores the result under key, rolling the active segment at the
// threshold and evicting oldest segments past the byte budget. Failures are
// swallowed: caching is an optimization, and a job must never fail because
// its result could not be cached (same discipline as checkpoint
// persistence).
func (s *Store) Put(key string, res Result) {
	frame, err := encodeRecord(record{
		Key: []byte(key), Output: []byte(res.Output), Batches: res.Batches, StoredUnixNanos: nowNanos(),
	})
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) == 0 {
		return // Close raced a Put; drop it
	}
	active := s.segs[len(s.segs)-1]
	if active.size > 0 && active.size+int64(len(frame)) > s.opts.segmentBytes() {
		if err := s.addSegment(active.seq + 1); err != nil {
			return
		}
		active = s.segs[len(s.segs)-1]
	}
	if _, err := active.f.WriteAt(frame, active.size); err != nil {
		return
	}
	s.index[key] = entry{seq: active.seq, off: active.size, n: len(frame)}
	active.size += int64(len(frame))
	s.total += int64(len(frame))
	s.evictLocked()
	s.metrics.bytes.Set(s.total)
}

// evictLocked drops whole segments oldest-first until the store fits its
// byte budget. The active segment is never evicted — a budget smaller than
// one record still serves the record it just wrote.
func (s *Store) evictLocked() {
	for s.total > s.opts.maxBytes() && len(s.segs) > 1 {
		victim := s.segs[0]
		s.segs = s.segs[1:]
		evicted := int64(0)
		for k, e := range s.index {
			if e.seq == victim.seq {
				delete(s.index, k)
				evicted++
			}
		}
		s.total -= victim.size
		victim.f.Close()
		os.Remove(victim.path)
		s.metrics.evictions.Add(evicted)
	}
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the store's on-disk footprint across segment files.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Close releases the segment file handles. Further Gets miss and further
// Puts are dropped; the on-disk state remains valid for a later Open.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	s.index = make(map[string]entry)
	return first
}
