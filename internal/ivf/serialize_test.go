package ivf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anna/internal/dataset"
	"anna/internal/pq"
	"anna/internal/wal/faultfs"
)

// buildFeatureful returns a small index exercising every optional model
// component: rotation, anisotropic encoding and the SQ rerank store.
func buildFeatureful(t testing.TB) (*Index, *dataset.Dataset) {
	t.Helper()
	spec := dataset.SIFTLike(600, 3, 1)
	spec.D = 16
	spec.Metric = pq.InnerProduct
	ds := dataset.Generate(spec)
	idx := Build(ds.Base, pq.InnerProduct, Config{
		NClusters: 6, M: 4, Ks: 16, CoarseIters: 4, PQIters: 4, Seed: 7,
		Rotate: true, AnisotropicEta: 2, Rerank: true,
	})
	return idx, ds
}

// sameSearchResults asserts both indexes return identical results for
// the dataset's query set.
func sameSearchResults(t *testing.T, want, got *Index, ds *dataset.Dataset) {
	t.Helper()
	for qi := 0; qi < ds.Queries.Rows && qi < 10; qi++ {
		q := ds.Queries.Row(qi)
		a := want.Search(q, SearchParams{W: 4, K: 5})
		b := got.Search(q, SearchParams{W: 4, K: 5})
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", qi, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
				t.Fatalf("query %d rank %d: (%d, %v) vs (%d, %v)",
					qi, i, a[i].ID, a[i].Score, b[i].ID, b[i].Score)
			}
		}
	}
}

func TestSaveLoadV3RoundTrip(t *testing.T) {
	idx, ds := buildFeatureful(t)
	idx.Delete(3, 17, 41)

	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != magicV3 {
		t.Fatalf("magic %q, want %q", got, magicV3)
	}
	if got := string(buf.Bytes()[buf.Len()-8:]); got != trailerV3 {
		t.Fatalf("trailer %q, want %q", got, trailerV3)
	}

	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NTotal != idx.NTotal || got.D != idx.D {
		t.Fatalf("geometry mismatch: N=%d D=%d", got.NTotal, got.D)
	}
	// Tombstones survive the round trip.
	for _, id := range []int64{3, 17, 41} {
		if !got.Deleted(id) {
			t.Fatalf("tombstone %d lost", id)
		}
	}
	if got.DeletedCount() != idx.DeletedCount() {
		t.Fatalf("deleted count %d, want %d", got.DeletedCount(), idx.DeletedCount())
	}
	if got.nextID != idx.nextID {
		t.Fatalf("nextID %d, want %d", got.nextID, idx.nextID)
	}
	sameSearchResults(t, idx, got, ds)
}

// TestSaveDeterministic: identical indexes serialize byte-identically
// (tombstones are emitted sorted, so map order cannot leak in).
func TestSaveDeterministic(t *testing.T) {
	idx, _ := buildFeatureful(t)
	idx.Delete(9, 2, 55, 31)
	var a, b bytes.Buffer
	if err := idx.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same index differ")
	}
}

// TestLoadRejectsEveryCorruptByte is the property the checksummed format
// exists for: flip any single byte anywhere in the artifact and Load
// must return an error — never panic, never silently decode. The XOR
// with 0x01 also covers the flip of magic "ANNAIVF3" to the unread
// "ANNAIVF2" at offset 7, which lands on the unknown-magic error.
func TestLoadRejectsEveryCorruptByte(t *testing.T) {
	idx, _ := buildFeatureful(t)
	idx.Delete(5)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine blob must load: %v", err)
	}
	for _, mask := range []byte{0x01, 0xFF} {
		for off := range valid {
			mut := append([]byte(nil), valid...)
			mut[off] ^= mask
			if _, err := Load(bytes.NewReader(mut)); err == nil {
				t.Fatalf("byte %d ^ %#02x: corrupt blob loaded without error", off, mask)
			}
		}
	}
}

// TestLoadRejectsEveryBitFlip sweeps single-bit upsets across the whole
// artifact through the fault harness's corruptor.
func TestLoadRejectsEveryBitFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("bit-level sweep")
	}
	idx, _ := buildFeatureful(t)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for bit := int64(0); bit < int64(len(valid))*8; bit += 7 { // stride keeps it fast, offsets still cover every byte
		mut := faultfs.FlipBit(valid, bit)
		if _, err := Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit %d: corrupt blob loaded without error", bit)
		}
	}
}

func TestLoadRejectsEveryTruncation(t *testing.T) {
	idx, _ := buildFeatureful(t)
	idx.Delete(1, 2)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for n := 0; n < len(valid); n++ {
		if _, err := Load(bytes.NewReader(valid[:n])); err == nil {
			t.Fatalf("%d-byte truncation loaded without error", n)
		}
	}
}

func TestLoadFileRejectsTrailingGarbage(t *testing.T) {
	idx, _ := buildFeatureful(t)
	path := filepath.Join(t.TempDir(), "index.anna")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: got %v, want ErrCorrupt", err)
	}
}

func TestLoadErrorsAreTyped(t *testing.T) {
	for name, blob := range map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTANIDX________"),
		"old magic": []byte("ANNAIVF2________"),
		"truncated": []byte(magicV3),
	} {
		if _, err := Load(bytes.NewReader(blob)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// hostileHeader emits a well-checksummed ANNAIVF3 prefix with the given
// raw header fields, so validation — not a checksum mismatch — is what
// must reject it.
func hostileHeader(metric uint8, d uint32, nTotal uint64, nc, m, ks uint32) []byte {
	var b bytes.Buffer
	b.WriteString(magicV3)
	b.WriteByte(metric)
	le := func(v any) { binary.Write(&b, binary.LittleEndian, v) }
	le(d)
	le(nTotal)
	le(nc)
	le(m)
	le(ks)
	b.WriteByte(0) // hasRot
	le(uint32(0))  // eta bits
	b.WriteByte(0) // hasSQ
	crc := crc32.Checksum(b.Bytes(), castagnoli)
	le(crc)
	return b.Bytes()
}

// TestLoadRejectsHostileHeaders: implausible counts must be refused
// before any count-derived allocation. The old loader would attempt the
// multi-GB make() (or overflow D*D) first; run with -timeout to catch
// regressions as OOM/panic, and assert the typed error here.
func TestLoadRejectsHostileHeaders(t *testing.T) {
	cases := map[string][]byte{
		"oversized dim":      hostileHeader(0, maxDim+1, 100, 4, 4, 16),
		"oversized clusters": hostileHeader(0, 16, 100, maxClusters+1, 4, 16),
		"oversized vectors":  hostileHeader(0, 16, maxVectors+1, 4, 4, 16),
		"zero dim":           hostileHeader(0, 0, 100, 4, 4, 16),
		"m not dividing d":   hostileHeader(0, 16, 100, 4, 3, 16),
		"ks out of range":    hostileHeader(0, 16, 100, 4, 4, 257),
		"bad metric":         hostileHeader(2, 16, 100, 4, 4, 16),
		// Counts inside the caps but far beyond the bytes present: the
		// size-bounded path must refuse, the stream path must not
		// pre-allocate ahead of the bytes actually read.
		"counts exceed input": hostileHeader(0, 1024, 1<<30, 1<<20, 4, 16),
	}
	for name, blob := range cases {
		if _, err := Load(bytes.NewReader(blob)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
		path := filepath.Join(t.TempDir(), "hostile.anna")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s (file): got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestSaveFileAtomic: an interrupted save must never damage the
// previous artifact, and a successful one must leave no temp files.
func TestSaveFileAtomic(t *testing.T) {
	idx, ds := buildFeatureful(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.anna")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: the rename swaps a fully-written temp file in.
	idx.Delete(7)
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Deleted(7) {
		t.Fatal("second save not visible after load")
	}
	sameSearchResults(t, idx, got, ds)
}

// TestSavePropagatesWriteErrors drives Save into the harness's failing
// writer at several cut points: the error must surface, not vanish into
// a silently truncated artifact.
func TestSavePropagatesWriteErrors(t *testing.T) {
	idx, _ := buildFeatureful(t)
	var full bytes.Buffer
	if err := idx.Save(&full); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 8, 100, full.Len() / 2, full.Len() - 1} {
		w := &faultfs.Writer{Limit: limit}
		if err := idx.Save(w); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("limit %d: got %v, want ErrInjected", limit, err)
		}
	}
}
