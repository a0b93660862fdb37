package anna

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anna/internal/ivf"
	"anna/internal/wal"
	"anna/internal/wire"
)

// Crash-safe durability: a Store pairs an atomic checksummed snapshot
// (the ANNAIVF3 artifact) with a write-ahead log of accepted /add
// batches. Every mutation is logged — and, under SyncAlways, fsynced —
// before the client sees an acknowledgment; startup recovery loads the
// snapshot, replays the WAL on top, and truncates at the first torn or
// corrupt record. Acknowledged state therefore survives crashes,
// truncated files and bit flips: damaged inputs are refused with a
// typed error, never silently decoded.

const (
	snapshotName = "snapshot.anna"
	walName      = "wal.log"
)

// SyncPolicy selects when WAL appends are fsynced (see wal.Policy).
type SyncPolicy int

const (
	// SyncAlways fsyncs before every /add acknowledgment: acknowledged
	// vectors survive any crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval group-commits: fsync when StoreOptions.SyncEvery has
	// elapsed since the last one. Bounded loss, amortized fsyncs.
	SyncInterval
	// SyncNone leaves flushing to the OS page cache.
	SyncNone
)

// StoreOptions configure a Store.
type StoreOptions struct {
	Sync SyncPolicy
	// SyncEvery is the SyncInterval group-commit window (default 100ms).
	SyncEvery time.Duration
	// Workers bounds the parallelism of the index's ingest pipeline
	// (Index.SetIngestWorkers): it applies to WAL replay during
	// OpenStore and to every Add served afterwards. 0 = GOMAXPROCS; the
	// resulting index is byte-identical for any value.
	Workers int
	// Logger receives structured lifecycle events: store creation,
	// recovery (replayed records, torn bytes) and snapshots, with
	// durations and sizes attached. Nil silences them.
	Logger *slog.Logger
}

func (o StoreOptions) walOptions() wal.Options {
	p := wal.SyncAlways
	switch o.Sync {
	case SyncInterval:
		p = wal.SyncInterval
	case SyncNone:
		p = wal.SyncNone
	}
	return wal.Options{Policy: p, Interval: o.SyncEvery}
}

// IsCorrupt reports whether err was caused by damaged durable state — a
// corrupt or truncated index file, or an invalid WAL record — as opposed
// to an I/O failure.
func IsCorrupt(err error) bool {
	return errors.Is(err, ivf.ErrCorrupt) || errors.Is(err, wal.ErrCorrupt) || errors.Is(err, errBadRecord)
}

var errBadRecord = errors.New("anna: invalid WAL record")

// ErrTailGone is returned by TailWAL when the requested (epoch, seq)
// position no longer exists — the store has snapshotted and trimmed its
// WAL since the follower last read, so sequence numbers restarted. The
// follower must re-bootstrap from a fresh snapshot instead of tailing.
var ErrTailGone = errors.New("anna: WAL tail position gone (snapshot trimmed the log)")

// Store is the durability layer of a served index: a data directory
// holding snapshot.anna and wal.log.
type Store struct {
	mu  sync.Mutex // serializes WAL appends against snapshot/close
	dir string
	idx *Index
	log *wal.Log
	opt StoreOptions

	replayed  int
	tornBytes int64
	lastSnap  atomic.Int64 // unix nanos of the last completed snapshot
	snapDur   atomic.Int64 // duration of the last snapshot write, nanos
	snapSize  atomic.Int64 // byte size of the snapshot file
	snapshots atomic.Uint64
}

// logger returns the configured structured logger, or nil when the
// store should stay silent.
func (st *Store) logger() *slog.Logger { return st.opt.Logger }

// StoreExists reports whether dir already holds a store snapshot.
func StoreExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, snapshotName))
	return err == nil
}

// CreateStore initialises dir with a snapshot of idx and an empty WAL.
// It refuses a directory that already holds a store (use OpenStore).
func CreateStore(dir string, idx *Index, opt StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snap := filepath.Join(dir, snapshotName)
	if _, err := os.Stat(snap); err == nil {
		return nil, fmt.Errorf("anna: %s already holds a store snapshot; use OpenStore", dir)
	}
	idx.SetIngestWorkers(opt.Workers)
	if err := idx.SaveFile(snap); err != nil {
		return nil, fmt.Errorf("anna: writing initial snapshot: %w", err)
	}
	// O_TRUNC discards any stale WAL left by a process that crashed
	// before its first snapshot completed.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	log, _, err := wal.Open(f, opt.walOptions(), nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	st := &Store{dir: dir, idx: idx, log: log, opt: opt}
	st.lastSnap.Store(time.Now().UnixNano())
	if fi, err := os.Stat(snap); err == nil {
		st.snapSize.Store(fi.Size())
	}
	if l := st.logger(); l != nil {
		l.Info("store created", "dir", dir, "vectors", idx.Len(),
			"snapshot_bytes", st.snapSize.Load())
	}
	return st, nil
}

// OpenStore recovers the index from dir: leftover temp files from an
// interrupted snapshot are swept, the snapshot is loaded (every section
// checksum-verified), and the WAL is replayed on top — skipping records
// the snapshot already contains, truncating at the first torn record,
// and refusing the store if a record is inconsistent with the index.
func OpenStore(dir string, opt StoreOptions) (*Store, error) {
	snap := filepath.Join(dir, snapshotName)
	if tmps, err := filepath.Glob(snap + ".tmp*"); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	idx, err := LoadIndexFile(snap)
	if err != nil {
		return nil, fmt.Errorf("anna: opening store snapshot: %w", err)
	}
	// Before WAL replay, so recovery Adds run at the configured width.
	idx.SetIngestWorkers(opt.Workers)
	st := &Store{dir: dir, idx: idx, opt: opt}
	if fi, err := os.Stat(snap); err == nil {
		st.lastSnap.Store(fi.ModTime().UnixNano())
	} else {
		st.lastSnap.Store(time.Now().UnixNano())
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	log, rec, err := wal.Open(f, opt.walOptions(), func(seq uint64, payload []byte) error {
		return st.applyRecord(payload)
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("anna: replaying WAL: %w", err)
	}
	st.log = log
	st.tornBytes = rec.TornBytes
	if fi, err := os.Stat(snap); err == nil {
		st.snapSize.Store(fi.Size())
	}
	if l := st.logger(); l != nil {
		l.Info("store recovered", "dir", dir, "vectors", st.idx.Len(),
			"replayed_records", st.replayed, "torn_bytes", rec.TornBytes,
			"wal_records", log.Records(), "wal_bytes", log.Size())
	}
	return st, nil
}

// applyRecord replays one WAL record onto the index. Records fully
// contained in the snapshot (a crash between snapshot rename and WAL
// trim) are skipped by ID; anything else must continue exactly where the
// index ends.
func (st *Store) applyRecord(payload []byte) error {
	applied, err := applyAddRecord(st.idx, payload)
	if err != nil {
		return err
	}
	if applied {
		st.replayed++
	}
	return nil
}

// applyAddRecord replays one add-batch payload onto idx. It is the
// shared apply step of local WAL recovery (Store.applyRecord) and
// follower replication (Replica): records already contained in the
// index are skipped idempotently by ID, and a record that neither
// overlaps nor continues the index is refused — the log and the state
// can never silently diverge. It reports whether the record mutated the
// index.
func applyAddRecord(idx *Index, payload []byte) (applied bool, err error) {
	firstID, vectors, err := decodeAddRecord(payload)
	if err != nil {
		return false, err
	}
	next := idx.NextID()
	if firstID+int64(len(vectors)) <= next {
		return false, nil // already present
	}
	if firstID != next {
		return false, fmt.Errorf("%w: add record for id %d, index expects %d", errBadRecord, firstID, next)
	}
	got, err := idx.Add(vectors)
	if err != nil {
		return false, fmt.Errorf("%w: replaying add at id %d: %v", errBadRecord, firstID, err)
	}
	if got != firstID {
		return false, fmt.Errorf("%w: replay assigned id %d, record says %d", errBadRecord, got, firstID)
	}
	return true, nil
}

// Index returns the recovered (or wrapped) index.
func (st *Store) Index() *Index { return st.idx }

// Dir returns the data directory.
func (st *Store) Dir() string { return st.dir }

// ReplayedRecords returns how many WAL records OpenStore applied.
func (st *Store) ReplayedRecords() int { return st.replayed }

// TornBytes returns how many trailing WAL bytes recovery discarded as
// torn or corrupt.
func (st *Store) TornBytes() int64 { return st.tornBytes }

// LastSnapshot returns when the snapshot was last written.
func (st *Store) LastSnapshot() time.Time { return time.Unix(0, st.lastSnap.Load()) }

// WALRecords returns the number of records in the live WAL segment.
func (st *Store) WALRecords() uint64 { return st.log.Records() }

// WALSize returns the live WAL segment's byte length.
func (st *Store) WALSize() int64 { return st.log.Size() }

// WALStats returns lifetime append/fsync/byte counters.
func (st *Store) WALStats() (appends, fsyncs, bytes uint64) { return st.log.Stats() }

// SetOnSync registers a hook run after every WAL fsync (metrics).
func (st *Store) SetOnSync(fn func()) { st.log.SetOnSync(fn) }

// SetSyncObserver registers a hook receiving every WAL fsync's measured
// duration (the anna_wal_fsync_duration_seconds histogram).
func (st *Store) SetSyncObserver(fn func(time.Duration)) { st.log.SetSyncObserver(fn) }

// SnapshotStats reports the last completed snapshot write: how long the
// atomic save took, the resulting file size, and how many snapshots
// this store has written (not counting the one it was opened from).
func (st *Store) SnapshotStats() (dur time.Duration, sizeBytes int64, count uint64) {
	return time.Duration(st.snapDur.Load()), st.snapSize.Load(), st.snapshots.Load()
}

// LogAdd appends one accepted add batch to the WAL. firstID must be the
// ID the in-memory Add will assign (Index.NextID before applying). When
// LogAdd returns nil under SyncAlways, the batch is durable; when it
// errors, the in-memory index must be left unmodified so state and log
// cannot diverge.
func (st *Store) LogAdd(firstID int64, vectors [][]float32) error {
	payload := encodeAddRecord(firstID, vectors)
	st.mu.Lock()
	defer st.mu.Unlock()
	_, err := st.log.Append(payload)
	return err
}

// Snapshot atomically rewrites snapshot.anna with the current index
// state (temp file + fsync + rename) and then trims the WAL. A crash
// between the two steps is safe: replay skips records the snapshot
// already contains. The caller must exclude concurrent Add/LogAdd (the
// Server holds its index lock); searches may continue.
func (st *Store) Snapshot() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	start := time.Now()
	path := filepath.Join(st.dir, snapshotName)
	if err := st.idx.SaveFile(path); err != nil {
		return fmt.Errorf("anna: writing snapshot: %w", err)
	}
	if err := st.log.Reset(); err != nil {
		return fmt.Errorf("anna: trimming WAL: %w", err)
	}
	dur := time.Since(start)
	st.snapDur.Store(int64(dur))
	if fi, err := os.Stat(path); err == nil {
		st.snapSize.Store(fi.Size())
	}
	st.snapshots.Add(1)
	st.lastSnap.Store(time.Now().UnixNano())
	if l := st.logger(); l != nil {
		l.Info("snapshot written", "dir", st.dir, "vectors", st.idx.Len(),
			"duration", dur, "bytes", st.snapSize.Load())
	}
	return nil
}

// Epoch identifies the snapshot generation WAL sequence numbers are
// relative to. Snapshot trims the WAL and restarts sequences at zero,
// so a bare sequence number is ambiguous across snapshots; the epoch
// (the nanosecond timestamp of the snapshot) disambiguates. A follower
// that presents a stale epoch gets ErrTailGone and re-bootstraps.
func (st *Store) Epoch() int64 { return st.lastSnap.Load() }

// TailPosition returns the store's current replication position: the
// snapshot epoch and the number of WAL records appended on top of it.
// The pair is read atomically with respect to Snapshot and LogAdd, so
// a state download stamped with it can be caught up by TailWAL(epoch,
// seq) without losing or double-applying a record.
func (st *Store) TailPosition() (epoch int64, seq uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastSnap.Load(), st.log.Records()
}

// TailWAL streams the WAL records with sequence >= from, re-framed in
// wire format (wal.AppendFrame / wal.ReplayFrom decode them), to w.
// epoch must be the store's current Epoch: a mismatch — or a from past
// the end of the log — returns ErrTailGone, telling the follower its
// position predates a snapshot trim and it must re-bootstrap. The
// frames are assembled under the store lock (so a concurrent Snapshot
// cannot trim the log mid-read) but written to w after it is released.
func (st *Store) TailWAL(w io.Writer, epoch int64, from uint64) error {
	st.mu.Lock()
	if epoch != st.lastSnap.Load() || from > st.log.Records() {
		st.mu.Unlock()
		return ErrTailGone
	}
	var frames []byte
	err := st.log.ReadFrom(from, func(seq uint64, payload []byte) error {
		frames = wal.AppendFrame(frames, seq, payload)
		return nil
	})
	st.mu.Unlock()
	if err != nil {
		return fmt.Errorf("anna: reading WAL tail: %w", err)
	}
	_, err = w.Write(frames)
	return err
}

// Close syncs and closes the WAL. It does not snapshot; call Snapshot
// first for a trimmed restart.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.log.Close()
}

// Add-record payload (little endian):
//
//	kind    uint8 (1 = add batch)
//	firstID int64
//	count   uint32, dim uint32      } the wire package's vector block:
//	count*dim float32               } one encoder and decoder for WAL and frames
const (
	addRecordKind   = 1
	addRecordHeader = 9 // kind + firstID
)

func encodeAddRecord(firstID int64, vectors [][]float32) []byte {
	dim := 0
	if len(vectors) > 0 {
		dim = len(vectors[0])
	}
	b := make([]byte, 0, addRecordHeader+8+4*len(vectors)*dim)
	b = append(b, addRecordKind)
	b = binary.LittleEndian.AppendUint64(b, uint64(firstID))
	return wire.AppendVectorBlock(b, vectors)
}

func decodeAddRecord(b []byte) (firstID int64, vectors [][]float32, err error) {
	if len(b) < addRecordHeader+8 {
		return 0, nil, fmt.Errorf("%w: %d-byte add record", errBadRecord, len(b))
	}
	if b[0] != addRecordKind {
		return 0, nil, fmt.Errorf("%w: unknown record kind %d", errBadRecord, b[0])
	}
	if firstID = int64(binary.LittleEndian.Uint64(b[1:])); firstID < 0 {
		return 0, nil, fmt.Errorf("%w: firstID=%d", errBadRecord, firstID)
	}
	// The block decoder checks the declared shape against the payload
	// length and refuses non-finite components.
	vectors, err = wire.DecodeVectorBlock(nil, b[addRecordHeader:], -1)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", errBadRecord, err)
	}
	if len(vectors) == 0 {
		return 0, nil, fmt.Errorf("%w: empty add record", errBadRecord)
	}
	return firstID, vectors, nil
}
