package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Frame layouts. Everything is little endian; every frame starts with
// the same four bytes.
//
//	header          kind uint8, version uint8 (= 1), 2 bytes, see below
//
//	search request  header (byte 2: backend — 0 unset, 1 "software",
//	(kind 1)        2 "anna"; byte 3: 0), w int32, k int32, vector block
//	search reply    header (bytes 2–3: 0), nq uint32, cycles int64,
//	(kind 2)        traffic_bytes int64, chip_energy_j float64, then
//	                nq × (n uint32, n × (id int64, score float32))
//	add request     header (bytes 2–3: 0), vector block
//	(kind 3)
//	add reply       header (bytes 2–3: 0), count uint32, first_id int64
//	(kind 4)
//
//	vector block    count uint32, dim uint32, count·dim float32
//
// A decoder accepts a frame only if the lengths its header declares add
// up to exactly the bytes it was given, and checks that before it
// allocates anything (the rule internal/ivf's loader follows), so a
// hostile header cannot make it allocate more than a small multiple of
// the body it actually sent.
const (
	frameVersion = 1

	kindSearchRequest = 1
	kindSearchReply   = 2
	kindAddRequest    = 3
	kindAddReply      = 4

	headerLen      = 4
	searchReqFixed = headerLen + 8  // + w, k
	searchRepFixed = headerLen + 28 // + nq, cycles, traffic_bytes, chip_energy_j
	addReplyLen    = headerLen + 12 // + count, first_id
	resultLen      = 12             // id int64, score float32
)

// maxDim bounds the dimension a vector block may declare.
const maxDim = 1 << 16

// ErrMalformed is wrapped by every frame and vector-block decoding error.
var ErrMalformed = errors.New("wire: malformed frame")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// backends are the Backend strings a frame can carry, by their code.
var backends = [...]string{"", "software", "anna"}

func appendHeader(dst []byte, kind, b2 byte) []byte {
	return append(dst, kind, frameVersion, b2, 0)
}

// checkHeader verifies the header of a frame that must be at least min
// bytes long and returns what follows it. Bytes a kind does not use must
// be zero, so a decoded frame re-encodes to the bytes it came from and a
// later version can give them a meaning without being misread.
func checkHeader(b []byte, kind byte, min int, what string) ([]byte, error) {
	if len(b) < min {
		return nil, malformed("%d-byte %s", len(b), what)
	}
	if b[0] != kind {
		return nil, malformed("frame kind %d, want %d (%s)", b[0], kind, what)
	}
	if b[1] != frameVersion {
		return nil, malformed("%s version %d, this build speaks %d", what, b[1], frameVersion)
	}
	if b[3] != 0 || b[2] != 0 && kind != kindSearchRequest {
		return nil, malformed("%s header bytes % x, want zero", what, b[2:4])
	}
	return b[headerLen:], nil
}

// rect returns the common length of the rows of vecs, or an error naming
// the first row that is empty or differs from row 0. A vector block has
// one dim, so only rectangular batches can be framed.
func rect(vecs [][]float32) (dim int, err error) {
	for i, v := range vecs {
		switch {
		case len(v) == 0 || len(v) > maxDim:
			return 0, fmt.Errorf("vector %d has dim %d, want 1 to %d", i, len(v), maxDim)
		case i == 0:
			dim = len(v)
		case len(v) != dim:
			return 0, fmt.Errorf("vector %d has dim %d, vector 0 has dim %d", i, len(v), dim)
		}
	}
	return dim, nil
}

// AppendVectorBlock appends the vector block of vecs to dst. Every row
// must have the length of row 0; callers validate first.
func AppendVectorBlock(dst []byte, vecs [][]float32) []byte {
	dim := 0
	if len(vecs) > 0 {
		dim = len(vecs[0])
	}
	dst = slices.Grow(dst, 8+4*len(vecs)*dim)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vecs)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	for _, v := range vecs {
		off := len(dst)
		dst = dst[:off+4*len(v)]
		for j, f := range v {
			binary.LittleEndian.PutUint32(dst[off+4*j:], math.Float32bits(f))
		}
	}
	return dst
}

// DecodeVectorBlock decodes a vector block that spans exactly b into
// dst[:0], reusing the capacity of dst and of its rows (a nil dst
// allocates one backing array for all rows). It refuses a block whose
// declared shape does not match len(b), a dim outside 1…maxDim (0 for
// the empty block), and any component that is NaN or ±Inf: JSON cannot
// express those, so neither may a frame or a WAL record. maxRows < 0
// means no limit on count.
func DecodeVectorBlock(dst [][]float32, b []byte, maxRows int) ([][]float32, error) {
	if len(b) < 8 {
		return nil, malformed("%d-byte vector block", len(b))
	}
	count, dim := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	b = b[8:]
	if count == 0 {
		if dim != 0 || len(b) != 0 {
			return nil, malformed("empty vector block declares dim %d and has %d payload bytes", dim, len(b))
		}
		return dst[:0], nil
	}
	if dim == 0 || dim > maxDim {
		return nil, malformed("vector dim %d, want 1 to %d", dim, maxDim)
	}
	if uint64(len(b)) != 4*uint64(count)*uint64(dim) {
		return nil, malformed("%d payload bytes for count=%d dim=%d", len(b), count, dim)
	}
	if maxRows >= 0 && uint64(count) > uint64(maxRows) {
		return nil, fmt.Errorf("batch of %d exceeds limit %d", count, maxRows)
	}
	n, d := int(count), int(dim)
	old := dst[:cap(dst)]
	if cap(dst) < n {
		dst = make([][]float32, n)
		copy(dst, old) // keep the rows already allocated
	}
	dst = dst[:n]
	var flat []float32 // backing for the rows that have no buffer yet
	for i := range dst {
		row := dst[i][:0]
		if cap(row) < d {
			if len(flat) < d {
				flat = make([]float32, (n-i)*d)
			}
			row, flat = flat[:d:d], flat[d:]
		}
		row = row[:d]
		for j := range row {
			bits := binary.LittleEndian.Uint32(b[4*j:])
			// Exponent all ones: NaN or ±Inf.
			if bits&0x7f800000 == 0x7f800000 {
				return nil, malformed("non-finite component %v in vector %d", math.Float32frombits(bits), i)
			}
			row[j] = math.Float32frombits(bits)
		}
		b = b[4*d:]
		dst[i] = row
	}
	return dst, nil
}

// AppendSearchRequestFrame appends req as a frame. It fails, appending
// nothing, on what a frame cannot carry: rows of unequal or zero length,
// a backend other than "", "software" or "anna", knobs outside int32.
func AppendSearchRequestFrame(dst []byte, req *SearchRequest) ([]byte, error) {
	dim, err := rect(req.Queries)
	if err != nil {
		return dst, err
	}
	code := slices.Index(backends[:], req.Backend)
	if code < 0 {
		return dst, fmt.Errorf("unknown backend %q", req.Backend)
	}
	if int(int32(req.W)) != req.W || int(int32(req.K)) != req.K {
		return dst, fmt.Errorf("w=%d k=%d out of range", req.W, req.K)
	}
	// One allocation for the whole frame when dst is cold.
	dst = slices.Grow(dst, searchReqFixed+8+4*len(req.Queries)*dim)
	dst = appendHeader(dst, kindSearchRequest, byte(code))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(req.W)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(req.K)))
	return AppendVectorBlock(dst, req.Queries), nil
}

func decodeSearchRequestFrame(req *SearchRequest, b []byte, maxBatch int) error {
	rest, err := checkHeader(b, kindSearchRequest, searchReqFixed, "search request")
	if err != nil {
		return err
	}
	if int(b[2]) >= len(backends) {
		return malformed("backend code %d", b[2])
	}
	req.Backend = backends[b[2]]
	req.W = int(int32(binary.LittleEndian.Uint32(rest)))
	req.K = int(int32(binary.LittleEndian.Uint32(rest[4:])))
	// Assigned only on success: a refused frame must not cost the caller
	// its pooled rows.
	qs, err := DecodeVectorBlock(req.Queries, rest[8:], maxBatch)
	if err == nil {
		req.Queries = qs
	}
	return err
}

// appendSearchReplyFrame appends rep as a frame.
func appendSearchReplyFrame(dst []byte, rep *SearchReply) []byte {
	dst = appendHeader(dst, kindSearchReply, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rep.Results)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rep.Cycles))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rep.TrafficBytes))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rep.ChipEnergyJ))
	for _, row := range rep.Results {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(row)))
		for _, r := range row {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(r.Score))
		}
	}
	return dst
}

// searchReplyShape checks every length a search reply frame declares
// against len(b) and returns its row section, row count and the number
// of results in all rows together. Every byte after the fixed part is a
// row count or a result, so the total follows from the length alone.
func searchReplyShape(b []byte) (rows []byte, nq, total int, err error) {
	rest, err := checkHeader(b, kindSearchReply, searchRepFixed, "search reply")
	if err != nil {
		return nil, 0, 0, err
	}
	n := uint64(binary.LittleEndian.Uint32(rest))
	rows = rest[28:]
	if 4*n > uint64(len(rows)) || (uint64(len(rows))-4*n)%resultLen != 0 {
		return nil, 0, 0, malformed("%d row bytes for %d rows", len(rows), n)
	}
	nq, total = int(n), (len(rows)-4*int(n))/resultLen
	left := total // results not yet claimed by a row
	for q, at := 0, rows; q < nq; q++ {
		c := binary.LittleEndian.Uint32(at)
		if uint64(c) > uint64(left) {
			return nil, 0, 0, malformed("row %d declares %d results, %d left in the frame", q, c, left)
		}
		left -= int(c)
		at = at[4+resultLen*int(c):]
	}
	if left != 0 {
		return nil, 0, 0, malformed("%d results after the last row", left)
	}
	return rows, nq, total, nil
}

// CheckSearchReplyFrame reports whether b is a well-formed search reply
// to nq queries, without decoding it: what a shard client runs on a 200
// before it calls the attempt a success.
func CheckSearchReplyFrame(b []byte, nq int) error {
	_, got, _, err := searchReplyShape(b)
	if err == nil && got != nq {
		err = malformed("%d result rows for %d queries", got, nq)
	}
	return err
}

// DecodeSearchReplyFrame decodes a search reply frame into rep. The rows
// of rep.Results are carved out of arena, which is extended once, by the
// number of results the frame holds, and returned; idBase is added to
// every ID on the way in (a router passes the shard's stripe base, so
// the rows come out in global IDs, ready to merge). The capacity of
// rep.Results is reused.
func DecodeSearchReplyFrame(rep *SearchReply, b []byte, idBase int64, arena []Result) ([]Result, error) {
	rest, nq, total, err := searchReplyShape(b)
	if err != nil {
		return arena, err
	}
	rep.Cycles = int64(binary.LittleEndian.Uint64(b[headerLen+4:]))
	rep.TrafficBytes = int64(binary.LittleEndian.Uint64(b[headerLen+12:]))
	rep.ChipEnergyJ = math.Float64frombits(binary.LittleEndian.Uint64(b[headerLen+20:]))
	arena = slices.Grow(arena, total)
	rows := slices.Grow(rep.Results[:0], nq)
	for q := 0; q < nq; q++ {
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		lo := len(arena)
		for ; n > 0; n-- {
			arena = append(arena, Result{
				ID:    idBase + int64(binary.LittleEndian.Uint64(rest)),
				Score: math.Float32frombits(binary.LittleEndian.Uint32(rest[8:])),
			})
			rest = rest[resultLen:]
		}
		rows = append(rows, arena[lo:len(arena):len(arena)])
	}
	rep.Results = rows
	return arena, nil
}

// AppendAddRequestFrame appends req as a frame; like
// AppendSearchRequestFrame it refuses rows of unequal or zero length.
func AppendAddRequestFrame(dst []byte, req *AddRequest) ([]byte, error) {
	dim, err := rect(req.Vectors)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, headerLen+8+4*len(req.Vectors)*dim)
	return AppendVectorBlock(appendHeader(dst, kindAddRequest, 0), req.Vectors), nil
}

func decodeAddRequestFrame(req *AddRequest, b []byte) error {
	rest, err := checkHeader(b, kindAddRequest, headerLen, "add request")
	if err != nil {
		return err
	}
	vs, err := DecodeVectorBlock(req.Vectors, rest, -1)
	if err == nil {
		req.Vectors = vs
	}
	return err
}

// appendAddReplyFrame appends rep as a frame.
func appendAddReplyFrame(dst []byte, rep AddReply) []byte {
	dst = appendHeader(dst, kindAddReply, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rep.Count))
	return binary.LittleEndian.AppendUint64(dst, uint64(rep.FirstID))
}

// DecodeAddReplyFrame decodes an add reply frame.
func DecodeAddReplyFrame(b []byte) (AddReply, error) {
	rest, err := checkHeader(b, kindAddReply, addReplyLen, "add reply")
	if err != nil {
		return AddReply{}, err
	}
	if len(b) != addReplyLen {
		return AddReply{}, malformed("%d-byte add reply, want %d", len(b), addReplyLen)
	}
	return AddReply{
		Count:   int(binary.LittleEndian.Uint32(rest)),
		FirstID: int64(binary.LittleEndian.Uint64(rest[4:])),
	}, nil
}
