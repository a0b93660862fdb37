package ivf

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"anna/internal/pq"
	"anna/internal/rotation"
	"anna/internal/sq"
	"anna/internal/vecmath"
)

// Binary index format ANNAIVF3 (little endian). The artifact is split
// into three sections, each followed by a CRC32C of its bytes, and
// closed by a length-prefixed footer so truncation, torn writes and bit
// flips are all detected before any decoded value is trusted:
//
//	magic "ANNAIVF3" (8 bytes)
//	header section:
//	    metric uint8, D uint32, NTotal uint64, NClusters uint32,
//	    M uint32, Ks uint32, hasRotation uint8, anisotropicEta float32,
//	    hasSQ uint8
//	header crc32c uint32 (covers magic + header)
//	model section:
//	    [rotation rows D*D float32]           (if hasRotation)
//	    [SQ mins D float32, scales D float32] (if hasSQ)
//	    centroids NClusters*D float32
//	    codebooks M*Ks*(D/M) float32
//	model crc32c uint32
//	data section:
//	    [SQ codes NTotal*D bytes]             (if hasSQ)
//	    per list: n uint32, ids n*uint64, codes n*CodeBytes
//	    nDeleted uint32, deleted ids nDeleted*uint64 (sorted)
//	data crc32c uint32
//	footer: payloadLen uint64 (bytes from offset 0 through the data
//	        crc32c inclusive), trailer "ANNAEND3" (8 bytes)
//
// This mirrors the host-side "place the set of necessary data structures
// in ANNA main memory" step (Section III-A): everything the accelerator
// needs is in this one artifact — which is exactly why it must be
// verifiable before it is trusted.

const (
	magicV3   = "ANNAIVF3"
	trailerV3 = "ANNAEND3"

	// Hard plausibility caps, enforced before any count-derived
	// allocation. They bound every size product far below int64/size_t
	// overflow (maxVectors*maxDim = 2^49).
	maxDim      = 1 << 16
	maxClusters = 1 << 24
	maxVectors  = 1 << 33

	// allocChunk bounds upfront allocation when the input size is
	// unknown (pure streams): buffers grow only as bytes actually
	// arrive, so a hostile header cannot force a multi-GB make().
	allocChunk = 1 << 20
)

// castagnoli is the CRC32C polynomial table (the checksum used by iSCSI,
// ext4 and most storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every Load failure caused by the input bytes
// — bad magic, checksum mismatch, truncation, implausible or
// inconsistent counts. Callers use errors.Is(err, ErrCorrupt) to tell a
// damaged artifact from an I/O failure.
var ErrCorrupt = errors.New("corrupt index")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("ivf: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// secWriter tracks a running CRC32C and byte count across buffered
// writes; write errors are sticky and surfaced by the caller.
type secWriter struct {
	bw      *bufio.Writer
	crc     uint32
	n       uint64
	err     error
	scratch [8]byte
}

func (sw *secWriter) bytes(b []byte) {
	if sw.err != nil {
		return
	}
	if _, err := sw.bw.Write(b); err != nil {
		sw.err = err
		return
	}
	sw.crc = crc32.Update(sw.crc, castagnoli, b)
	sw.n += uint64(len(b))
}

func (sw *secWriter) u8(v uint8) {
	sw.scratch[0] = v
	sw.bytes(sw.scratch[:1])
}

func (sw *secWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(sw.scratch[:4], v)
	sw.bytes(sw.scratch[:4])
}

func (sw *secWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(sw.scratch[:8], v)
	sw.bytes(sw.scratch[:8])
}

func (sw *secWriter) f32s(vs []float32) {
	for _, v := range vs {
		sw.u32(math.Float32bits(v))
	}
}

// endSection emits the CRC of the section written so far (the CRC bytes
// themselves are not covered) and starts a fresh section.
func (sw *secWriter) endSection() {
	if sw.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(sw.scratch[:4], sw.crc)
	if _, err := sw.bw.Write(sw.scratch[:4]); err != nil {
		sw.err = err
		return
	}
	sw.n += 4
	sw.crc = 0
}

// Save writes the index to w in the ANNAIVF3 format.
func (x *Index) Save(w io.Writer) error {
	sw := &secWriter{bw: bufio.NewWriter(w)}
	sw.bytes([]byte(magicV3))
	sw.u8(uint8(x.Metric))
	sw.u32(uint32(x.D))
	sw.u64(uint64(x.NTotal))
	sw.u32(uint32(x.NClusters()))
	sw.u32(uint32(x.PQ.M))
	sw.u32(uint32(x.PQ.Ks))
	if x.Rot != nil {
		sw.u8(1)
	} else {
		sw.u8(0)
	}
	sw.u32(math.Float32bits(x.AnisotropicEta))
	if x.SQ != nil {
		sw.u8(1)
	} else {
		sw.u8(0)
	}
	sw.endSection()

	if x.Rot != nil {
		sw.f32s(x.Rot.Rows)
	}
	if x.SQ != nil {
		sw.f32s(x.SQ.Q.Min)
		sw.f32s(x.SQ.Q.Scale)
	}
	sw.f32s(x.Centroids.Data)
	sw.f32s(x.PQ.Codebooks.Data)
	sw.endSection()

	if x.SQ != nil {
		sw.bytes(x.SQ.Codes)
	}
	for c := range x.Lists {
		lst := &x.Lists[c]
		sw.u32(uint32(lst.Len()))
		for _, id := range lst.IDs {
			sw.u64(uint64(id))
		}
		sw.bytes(lst.Codes)
	}
	// Tombstones, sorted so identical indexes serialize byte-identically.
	dead := make([]int64, 0, len(x.deleted))
	for id := range x.deleted {
		dead = append(dead, id)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	sw.u32(uint32(len(dead)))
	for _, id := range dead {
		sw.u64(uint64(id))
	}
	sw.endSection()

	sw.u64(sw.n)
	sw.bytes([]byte(trailerV3))
	if sw.err != nil {
		return sw.err
	}
	return sw.bw.Flush()
}

// SaveFile writes the index to path atomically: the bytes go to a
// temporary file in the same directory, which is fsynced and renamed
// over path only after a complete write, so a crash mid-save never
// leaves a truncated index where a good one used to be.
func (x *Index) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := x.Save(tmp); err != nil {
		return fail(fmt.Errorf("ivf: writing %s: %w", tmpName, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("ivf: syncing %s: %w", tmpName, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ivf: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Make the rename itself durable. Directory fsync is best-effort:
	// some filesystems refuse it, and the data file is already safe.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// secReader mirrors secWriter: every read is counted, bounds-checked
// against the remaining input when the total size is known, and folded
// into a running CRC32C checked at section boundaries.
type secReader struct {
	br      *bufio.Reader
	crc     uint32
	n       int64 // bytes consumed
	size    int64 // total input size; -1 when unknown (pure stream)
	scratch [8]byte
}

// readRaw fills b without touching the CRC (stored checksums, footer).
func (sr *secReader) readRaw(b []byte) error {
	if _, err := io.ReadFull(sr.br, b); err != nil {
		return err
	}
	sr.n += int64(len(b))
	return nil
}

func (sr *secReader) read(b []byte) error {
	if err := sr.readRaw(b); err != nil {
		return err
	}
	sr.crc = crc32.Update(sr.crc, castagnoli, b)
	return nil
}

func (sr *secReader) u8() (uint8, error) {
	err := sr.read(sr.scratch[:1])
	return sr.scratch[0], err
}

func (sr *secReader) u32() (uint32, error) {
	err := sr.read(sr.scratch[:4])
	return binary.LittleEndian.Uint32(sr.scratch[:4]), err
}

func (sr *secReader) u64() (uint64, error) {
	err := sr.read(sr.scratch[:8])
	return binary.LittleEndian.Uint64(sr.scratch[:8]), err
}

func (sr *secReader) f32() (float32, error) {
	v, err := sr.u32()
	return math.Float32frombits(v), err
}

// endSection reads the stored section checksum and compares it to the
// computed one.
func (sr *secReader) endSection(what string) error {
	want := sr.crc
	if err := sr.readRaw(sr.scratch[:4]); err != nil {
		return corruptf("reading %s checksum: %v", what, err)
	}
	got := binary.LittleEndian.Uint32(sr.scratch[:4])
	if got != want {
		return corruptf("%s checksum mismatch: stored %08x, computed %08x", what, got, want)
	}
	sr.crc = 0
	return nil
}

// bytesN reads need bytes, refusing counts that exceed the remaining
// input when the size is known and growing the buffer chunk-by-chunk
// when it is not, so allocation never outruns the bytes actually
// present.
func (sr *secReader) bytesN(need uint64, what string) ([]byte, error) {
	if need == 0 {
		return nil, nil
	}
	if need > math.MaxInt64/2 {
		return nil, corruptf("%s: implausible size %d", what, need)
	}
	if sr.size >= 0 {
		if int64(need) > sr.size-sr.n {
			return nil, corruptf("%s: needs %d bytes, %d remain", what, need, sr.size-sr.n)
		}
		b := make([]byte, need)
		if err := sr.read(b); err != nil {
			return nil, corruptf("reading %s: %v", what, err)
		}
		return b, nil
	}
	var buf []byte
	for uint64(len(buf)) < need {
		n := need - uint64(len(buf))
		if n > allocChunk {
			n = allocChunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if err := sr.read(buf[start:]); err != nil {
			return nil, corruptf("reading %s: %v", what, err)
		}
	}
	return buf, nil
}

// f32sN reads need float32s (the float buffer is only allocated after
// the underlying bytes were successfully read).
func (sr *secReader) f32sN(need uint64, what string) ([]float32, error) {
	b, err := sr.bytesN(need*4, what)
	if err != nil {
		return nil, err
	}
	out := make([]float32, need)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// header is the decoded, not-yet-validated index geometry.
type header struct {
	metric         uint8
	d, nc, m, ks   uint32
	nTotal         uint64
	hasRot, hasSQ  uint8
	anisotropicEta float32
}

// validate applies the strict bounds every count must satisfy before a
// single count-derived allocation happens. The caps keep all later size
// products far below int64 overflow.
func (h *header) validate() error {
	if h.metric > 1 {
		return corruptf("unknown metric %d", h.metric)
	}
	if h.d == 0 || h.d > maxDim {
		return corruptf("dimension %d out of range 1..%d", h.d, maxDim)
	}
	if h.m == 0 || h.m > h.d || h.d%h.m != 0 {
		return corruptf("inconsistent header D=%d M=%d Ks=%d", h.d, h.m, h.ks)
	}
	if h.ks < 2 || h.ks > 256 {
		return corruptf("Ks=%d out of range 2..256", h.ks)
	}
	if h.nc == 0 || h.nc > maxClusters {
		return corruptf("implausible cluster count %d", h.nc)
	}
	if h.nTotal > maxVectors {
		return corruptf("implausible vector count %d", h.nTotal)
	}
	if h.hasRot > 1 {
		return corruptf("bad rotation flag %d", h.hasRot)
	}
	if h.hasSQ > 1 {
		return corruptf("bad SQ flag %d", h.hasSQ)
	}
	eta := h.anisotropicEta
	if eta < 0 || eta != eta || math.IsInf(float64(eta), 0) {
		return corruptf("invalid anisotropic eta %v", eta)
	}
	return nil
}

// shell allocates the Index skeleton for a validated header (model and
// list payloads are filled in by the caller).
func (h *header) shell() *Index {
	d, m, ks := int(h.d), int(h.m), int(h.ks)
	return &Index{
		Metric:         pq.Metric(h.metric),
		AnisotropicEta: h.anisotropicEta,
		D:              d,
		NTotal:         int(h.nTotal),
		PQ: &pq.Quantizer{
			D: d, M: m, Ks: ks, Dsub: d / m,
			Codebooks: vecmath.NewMatrix(m*ks, d/m),
		},
		searcherPool: &sync.Pool{},
	}
}

// Load reads an index written by Save (ANNAIVF3). Any malformed input
// (any other magic included) yields an error wrapping ErrCorrupt;
// Load never panics and never allocates more than the input could
// justify. Prefer LoadFile, which additionally bounds every section
// against the file size and verifies exact consumption.
func Load(r io.Reader) (*Index, error) {
	return load(r, -1)
}

func load(r io.Reader, size int64) (*Index, error) {
	sr := &secReader{br: bufio.NewReader(r), size: size}
	hdr := make([]byte, len(magicV3))
	if err := sr.read(hdr); err != nil {
		return nil, corruptf("reading magic: %v", err)
	}
	if string(hdr) != magicV3 {
		return nil, corruptf("bad magic %q", hdr)
	}
	return loadV3(sr)
}

// loadV3 reads the checksummed sectioned layout.
func loadV3(sr *secReader) (*Index, error) {
	var h header
	var err error
	read := func(dst any) {
		if err != nil {
			return
		}
		switch p := dst.(type) {
		case *uint8:
			*p, err = sr.u8()
		case *uint32:
			*p, err = sr.u32()
		case *uint64:
			*p, err = sr.u64()
		case *float32:
			*p, err = sr.f32()
		}
	}
	read(&h.metric)
	read(&h.d)
	read(&h.nTotal)
	read(&h.nc)
	read(&h.m)
	read(&h.ks)
	read(&h.hasRot)
	read(&h.anisotropicEta)
	read(&h.hasSQ)
	if err != nil {
		return nil, corruptf("reading header: %v", err)
	}
	if err := sr.endSection("header"); err != nil {
		return nil, err
	}
	if err := h.validate(); err != nil {
		return nil, err
	}

	x := h.shell()
	d, nc := uint64(h.d), uint64(h.nc)
	if h.hasRot == 1 {
		rows, err := sr.f32sN(d*d, "rotation")
		if err != nil {
			return nil, err
		}
		x.Rot = &rotation.Matrix{D: int(h.d), Rows: rows}
	}
	var quant *sq.Quantizer
	if h.hasSQ == 1 {
		quant = &sq.Quantizer{D: int(h.d)}
		if quant.Min, err = sr.f32sN(d, "SQ mins"); err != nil {
			return nil, err
		}
		if quant.Scale, err = sr.f32sN(d, "SQ scales"); err != nil {
			return nil, err
		}
	}
	cents, err := sr.f32sN(nc*d, "centroids")
	if err != nil {
		return nil, err
	}
	x.Centroids = &vecmath.Matrix{Rows: int(h.nc), Cols: int(h.d), Data: cents}
	books, err := sr.f32sN(uint64(h.m)*uint64(h.ks)*(d/uint64(h.m)), "codebooks")
	if err != nil {
		return nil, err
	}
	x.PQ.Codebooks.Data = books
	if err := sr.endSection("model"); err != nil {
		return nil, err
	}

	if h.hasSQ == 1 {
		codes, err := sr.bytesN(h.nTotal*d, "SQ codes")
		if err != nil {
			return nil, err
		}
		x.SQ = &sq.Store{Q: quant, Codes: codes, N: int(h.nTotal)}
	}
	if err := readLists(sr, x, int(h.nc)); err != nil {
		return nil, err
	}
	finishLoad(x)
	if err := readTombstones(sr, x); err != nil {
		return nil, err
	}
	if err := sr.endSection("data"); err != nil {
		return nil, err
	}

	payload := uint64(sr.n)
	length, err := sr.footerU64()
	if err != nil {
		return nil, corruptf("reading footer: %v", err)
	}
	if length != payload {
		return nil, corruptf("footer says %d payload bytes, consumed %d (truncated or torn)", length, payload)
	}
	trailer := make([]byte, len(trailerV3))
	if err := sr.readRaw(trailer); err != nil {
		return nil, corruptf("reading trailer: %v", err)
	}
	if string(trailer) != trailerV3 {
		return nil, corruptf("bad trailer %q", trailer)
	}
	if sr.size >= 0 && sr.n != sr.size {
		return nil, corruptf("%d trailing bytes after index", sr.size-sr.n)
	}
	return x, nil
}

func (sr *secReader) footerU64() (uint64, error) {
	if err := sr.readRaw(sr.scratch[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(sr.scratch[:8]), nil
}

// readLists decodes the per-cluster inverted lists, clamping every count
// against the header total (and, through bytesN, against the remaining
// input) before allocating. The Lists slice itself grows with the bytes
// actually consumed — each list costs at least its 4-byte length prefix
// — so a hostile cluster count in an otherwise tiny input cannot force a
// large upfront allocation.
func readLists(sr *secReader, x *Index, nc int) error {
	cb := x.PQ.CodeBytes()
	reserve := nc
	if sr.size >= 0 && int64(reserve) > (sr.size-sr.n)/4 {
		return corruptf("%d lists cannot fit in %d remaining bytes", nc, sr.size-sr.n)
	}
	if reserve > allocChunk/4 {
		reserve = allocChunk / 4
	}
	x.Lists = make([]List, 0, reserve)
	total := 0
	for c := 0; c < nc; c++ {
		n32, err := sr.u32()
		if err != nil {
			return corruptf("reading list %d header: %v", c, err)
		}
		n := int(n32)
		if total+n > x.NTotal {
			return corruptf("list %d: %d vectors would exceed header total %d", c, n, x.NTotal)
		}
		idBytes, err := sr.bytesN(uint64(n)*8, fmt.Sprintf("list %d ids", c))
		if err != nil {
			return err
		}
		var lst List
		lst.IDs = make([]int64, n)
		for i := range lst.IDs {
			id := int64(binary.LittleEndian.Uint64(idBytes[8*i:]))
			if id < 0 {
				return corruptf("list %d: negative vector id %d", c, id)
			}
			lst.IDs[i] = id
		}
		if lst.Codes, err = sr.bytesN(uint64(n)*uint64(cb), fmt.Sprintf("list %d codes", c)); err != nil {
			return err
		}
		x.Lists = append(x.Lists, lst)
		total += n
	}
	if total != x.NTotal {
		return corruptf("list sizes sum to %d, header says %d", total, x.NTotal)
	}
	return nil
}

// readTombstones decodes the deleted-ID set.
func readTombstones(sr *secReader, x *Index) error {
	n32, err := sr.u32()
	if err != nil {
		return corruptf("reading tombstone count: %v", err)
	}
	n := int(n32)
	if n == 0 {
		return nil
	}
	if n > x.NTotal {
		return corruptf("%d tombstones exceed %d vectors", n, x.NTotal)
	}
	b, err := sr.bytesN(uint64(n)*8, "tombstones")
	if err != nil {
		return err
	}
	x.deleted = make(map[int64]struct{}, n)
	for i := 0; i < n; i++ {
		id := int64(binary.LittleEndian.Uint64(b[8*i:]))
		if id < 0 || id >= x.nextID {
			return corruptf("tombstone id %d outside 0..%d", id, x.nextID-1)
		}
		x.deleted[id] = struct{}{}
	}
	return nil
}

// finishLoad recomputes nextID: Compact leaves ID gaps, so the next
// assignable ID is maxID+1, not the live count.
func finishLoad(x *Index) {
	x.nextID = int64(x.NTotal)
	for c := range x.Lists {
		for _, id := range x.Lists[c].IDs {
			if id >= x.nextID {
				x.nextID = id + 1
			}
		}
	}
}

// LoadFile reads an index from path. Knowing the file size lets every
// section be bounds-checked before allocation and lets trailing garbage
// be rejected.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	size := int64(-1)
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
		size = st.Size()
	}
	x, lerr := load(f, size)
	if cerr := f.Close(); cerr != nil && lerr == nil {
		return nil, fmt.Errorf("ivf: closing %s: %w", path, cerr)
	}
	if lerr != nil {
		return nil, fmt.Errorf("ivf: loading %s: %w", path, lerr)
	}
	return x, nil
}
