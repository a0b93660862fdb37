package anna

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// randVectors returns deterministic pseudo-random vectors.
func randVectors(seed int64, n, d int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, d)
		for j := range v {
			v[j] = rng.Float32()
		}
		out[i] = v
	}
	return out
}

func buildDurableBase(t testing.TB) *Index {
	t.Helper()
	idx, err := BuildIndex(randVectors(1, 300, 8), L2, BuildOptions{
		NClusters: 8, M: 4, Ks: 16, TrainIters: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// expectSameResults asserts two indexes answer a query set identically —
// the "recovered state equals acknowledged state" oracle.
func expectSameResults(t *testing.T, want, got *Index) {
	t.Helper()
	if want.Len() != got.Len() || want.NextID() != got.NextID() {
		t.Fatalf("size mismatch: want Len=%d NextID=%d, got Len=%d NextID=%d",
			want.Len(), want.NextID(), got.Len(), got.NextID())
	}
	for qi, q := range randVectors(99, 20, want.Dim()) {
		a := want.Search(q, want.NClusters(), 10)
		b := got.Search(q, got.NClusters(), 10)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
}

func postJSONInto(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestStoreCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	batch := randVectors(2, 40, 8)
	if err := st.LogAdd(st.Index().NextID(), batch); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Index().Add(batch); err != nil {
		t.Fatal(err)
	}
	want := st.Index()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir, StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.ReplayedRecords() != 1 || re.TornBytes() != 0 {
		t.Fatalf("replayed=%d torn=%d", re.ReplayedRecords(), re.TornBytes())
	}
	expectSameResults(t, want, re.Index())
}

// TestRecoveryAfterKillMidAdd is the acceptance scenario: a server is
// killed while an /add stream is in flight. Every acknowledged batch
// must survive; the torn in-flight record must be discarded; recovered
// search results must match a reference index built from the snapshot
// plus exactly the acknowledged batches.
func TestRecoveryAfterKillMidAdd(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st.Index())
	srv.Store = st
	ts := httptest.NewServer(srv.Handler())

	var acked [][][]float32
	for i := 0; i < 5; i++ {
		batch := randVectors(int64(10+i), 8+i, 8)
		var resp addResponse
		r := postJSONInto(t, ts.URL+"/add", addRequest{Vectors: batch}, &resp)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("add %d: status %d", i, r.StatusCode)
		}
		if resp.Count != len(batch) {
			t.Fatalf("add %d acked %d vectors", i, resp.Count)
		}
		acked = append(acked, batch)
	}
	ts.Close()
	// Kill: no shutdown snapshot, no clean close. The WAL file holds the
	// five fsynced records; the sixth batch was mid-write when the
	// process died, leaving a torn record at the tail.
	st.Close() // release the fd only; equivalent to a crash post-fsync
	wf, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	// Reference: the snapshot exactly as written at store creation, plus
	// the acknowledged batches applied in order.
	ref, err := LoadIndexFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range acked {
		if _, err := ref.Add(batch); err != nil {
			t.Fatal(err)
		}
	}

	re, err := OpenStore(dir, StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	if re.ReplayedRecords() != len(acked) {
		t.Fatalf("replayed %d records, want %d", re.ReplayedRecords(), len(acked))
	}
	if re.TornBytes() != 10 {
		t.Fatalf("TornBytes = %d, want 10", re.TornBytes())
	}
	expectSameResults(t, ref, re.Index())

	// The recovered store keeps serving: another add and another reopen.
	more := randVectors(77, 6, 8)
	if err := re.LogAdd(re.Index().NextID(), more); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Index().Add(more); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIdempotentReplay covers the crash window between the
// snapshot rename and the WAL trim: records already contained in the
// snapshot must be skipped, not double-applied.
func TestSnapshotIdempotentReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	batch := randVectors(3, 25, 8)
	if err := st.LogAdd(st.Index().NextID(), batch); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Index().Add(batch); err != nil {
		t.Fatal(err)
	}
	// Snapshot lands, then the process dies before Reset: write the
	// snapshot directly, leaving the already-applied record in the WAL.
	if err := st.Index().SaveFile(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatal(err)
	}
	want := st.Index()
	st.Close()

	re, err := OpenStore(dir, StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	if re.ReplayedRecords() != 0 {
		t.Fatalf("replayed %d records; snapshot-covered records must be skipped", re.ReplayedRecords())
	}
	expectSameResults(t, want, re.Index())
}

func TestAdminSnapshotTrimsWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st.Index())
	srv.Store = st
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer st.Close()

	postJSONInto(t, ts.URL+"/add", addRequest{Vectors: randVectors(4, 30, 8)}, nil)
	if st.WALRecords() != 1 {
		t.Fatalf("WAL holds %d records before snapshot", st.WALRecords())
	}
	var snap snapshotResponse
	r := postJSONInto(t, ts.URL+"/admin/snapshot", struct{}{}, &snap)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", r.StatusCode)
	}
	if snap.WALRecords != 0 || st.WALSize() != 0 {
		t.Fatalf("WAL not trimmed: %d records, %d bytes", snap.WALRecords, st.WALSize())
	}
	if snap.Vectors != 330 {
		t.Fatalf("snapshot reports %d vectors", snap.Vectors)
	}
	// GET must be refused; a store-less server must 503.
	if resp, err := http.Get(ts.URL + "/admin/snapshot"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET snapshot: %v %v", resp.StatusCode, err)
	}
	plain := httptest.NewServer(NewServer(buildDurableBase(t)).Handler())
	defer plain.Close()
	if r := postJSONInto(t, plain.URL+"/admin/snapshot", struct{}{}, nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("store-less snapshot: status %d", r.StatusCode)
	}

	// After the checkpoint a reopen replays nothing and sees everything.
	want := st.Index()
	re, err := OpenStore(dir, StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.ReplayedRecords() != 0 {
		t.Fatalf("replayed %d records after checkpoint", re.ReplayedRecords())
	}
	expectSameResults(t, want, re.Index())
}

func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := NewServer(st.Index())
	srv.Store = st
	srv.SnapshotEvery = 50
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSONInto(t, ts.URL+"/add", addRequest{Vectors: randVectors(6, 30, 8)}, nil)
	if st.WALRecords() != 1 {
		t.Fatalf("auto-snapshot fired below threshold (%d WAL records)", st.WALRecords())
	}
	postJSONInto(t, ts.URL+"/add", addRequest{Vectors: randVectors(7, 30, 8)}, nil)
	if st.WALRecords() != 0 {
		t.Fatalf("auto-snapshot did not fire at threshold (%d WAL records)", st.WALRecords())
	}
}

func TestOpenStoreRefusesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, snapshotName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenStore(dir, StoreOptions{})
	if err == nil || !IsCorrupt(err) {
		t.Fatalf("corrupt snapshot: got %v, want IsCorrupt", err)
	}
}

// TestOpenStoreRefusesInconsistentWAL: a record that neither matches the
// snapshot frontier nor is covered by it (an ID gap) must refuse the
// store rather than silently renumber vectors.
func TestOpenStoreRefusesInconsistentWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Log a record claiming IDs far past the snapshot frontier.
	if err := st.LogAdd(st.Index().NextID()+1000, randVectors(8, 5, 8)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	_, err = OpenStore(dir, StoreOptions{})
	if err == nil || !IsCorrupt(err) {
		t.Fatalf("gapped WAL: got %v, want IsCorrupt", err)
	}
}

func TestCreateStoreRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if !StoreExists(dir) {
		t.Fatal("StoreExists = false after create")
	}
	if _, err := CreateStore(dir, buildDurableBase(t), StoreOptions{}); err == nil {
		t.Fatal("CreateStore over an existing store must fail")
	}
}

// TestOpenStoreSweepsTempFiles: leftovers from a snapshot interrupted
// mid-write must not accumulate or be mistaken for anything.
func TestOpenStoreSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	junk := filepath.Join(dir, snapshotName+".tmp123")
	if err := os.WriteFile(junk, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatalf("temp file survived recovery: %v", err)
	}
}

func TestAddRecordCodec(t *testing.T) {
	vecs := randVectors(11, 3, 4)
	payload := encodeAddRecord(42, vecs)
	firstID, got, err := decodeAddRecord(payload)
	if err != nil || firstID != 42 {
		t.Fatalf("decode: id=%d err=%v", firstID, err)
	}
	for i := range vecs {
		for j := range vecs[i] {
			if got[i][j] != vecs[i][j] {
				t.Fatalf("vector %d component %d mismatch", i, j)
			}
		}
	}
	bad := [][]byte{
		{},
		{2},
		payload[:len(payload)-1],
		append(append([]byte(nil), payload...), 0),
	}
	for i, b := range bad {
		if _, _, err := decodeAddRecord(b); err == nil {
			t.Fatalf("bad payload %d accepted", i)
		}
	}
	// Non-finite floats are data corruption the CRC cannot catch if they
	// were written that way; the decoder must still refuse them.
	nan := encodeAddRecord(0, [][]float32{{1, 2}})
	nan[17] = 0xFF
	nan[18] = 0xFF
	nan[19] = 0xFF
	nan[20] = 0xFF
	if _, _, err := decodeAddRecord(nan); err == nil {
		t.Fatal("NaN component accepted")
	}
}

// The add record's vector section is encoded by internal/wire's vector
// block helpers, shared with the serving frames; the bytes on disk are
// pinned here so neither use can move them.
func TestAddRecordGolden(t *testing.T) {
	got := encodeAddRecord(0x0102030405, [][]float32{{1, -2.5}, {0, 0.5}})
	want := []byte{
		1,                                     // kind: add batch
		0x05, 0x04, 0x03, 0x02, 0x01, 0, 0, 0, // firstID
		2, 0, 0, 0, // count
		2, 0, 0, 0, // dim
		0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x20, 0xc0, // 1, -2.5
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3f, // 0, 0.5
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("add record bytes\n got % x\nwant % x", got, want)
	}
	firstID, vecs, err := decodeAddRecord(want)
	if err != nil || firstID != 0x0102030405 || len(vecs) != 2 || vecs[0][1] != -2.5 || vecs[1][1] != 0.5 {
		t.Fatalf("decoded id=%d vecs=%v err=%v", firstID, vecs, err)
	}
	// Refused where the record layout demands it, whatever the block
	// decoder alone would accept: an empty batch, a negative first ID.
	empty := append(bytes.Clone(want[:9]), 0, 0, 0, 0, 0, 0, 0, 0)
	negative := bytes.Clone(want)
	negative[8] = 0x80
	for name, b := range map[string][]byte{"empty batch": empty, "negative firstID": negative} {
		if _, _, err := decodeAddRecord(b); !IsCorrupt(err) {
			t.Errorf("%s: err = %v, want a corrupt-record error", name, err)
		}
	}
}

// TestDurabilityMetricsExported checks the new instruments appear on
// /metrics once a store is attached.
func TestDurabilityMetricsExported(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := NewServer(st.Index())
	srv.Store = st
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSONInto(t, ts.URL+"/add", addRequest{Vectors: randVectors(13, 10, 8)}, nil)
	postJSONInto(t, ts.URL+"/admin/snapshot", struct{}{}, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, name := range []string{
		"anna_wal_append_duration_seconds",
		"anna_wal_fsync_duration_seconds",
		"anna_wal_fsync_total",
		"anna_snapshots_total",
		"anna_snapshot_duration_seconds",
		"anna_snapshot_size_bytes",
		"anna_recovery_replayed_records_total",
		"anna_last_snapshot_age_seconds",
		"anna_wal_records",
		"anna_wal_size_bytes",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Fatalf("metric %s missing from /metrics:\n%s", name, body[:min(len(body), 2000)])
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte("anna_wal_fsync_total 2")) {
		// 1 append fsync + 1 WAL reset fsync.
		t.Fatalf("fsync counter not wired:\n%s", body)
	}
	// The snapshot counter reads the store's own count: exactly the one
	// /admin/snapshot above (seeding in CreateStore is not a snapshot
	// write), and the fsync latency histogram saw both fsyncs.
	if !bytes.Contains(buf.Bytes(), []byte("anna_snapshots_total 1")) {
		t.Fatalf("snapshot counter not wired to store stats:\n%s", body)
	}
	if !bytes.Contains(buf.Bytes(), []byte("anna_wal_fsync_duration_seconds_count 2")) {
		t.Fatalf("fsync duration histogram not wired:\n%s", body)
	}
}
