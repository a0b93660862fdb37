// Package wire is the one definition of the four messages the serving
// API exchanges — search request, search reply, add request, add reply —
// and of the two codecs that carry them:
//
//   - JSON, the public default: a hand-written pull scanner and an
//     append-based encoder that accept and emit exactly what
//     encoding/json does for these structs (numbers go through the same
//     strconv.ParseFloat(tok, 32), keys are matched the way encoding/json
//     matches them, unknown keys are skipped, bytes after the first value
//     are ignored), without reflection and without allocating once the
//     caller's buffers are warm;
//   - frames (Content-Type application/x-anna-frame): a length-checked
//     little-endian layout a router speaks to its shards on every hop,
//     and any client may opt into. A frame carries float32 bits as they
//     are, so decoding it is a bounds check and a copy.
//
// A server picks the codec from the request's exact Content-Type
// (CodecFor) and answers a 200 in the codec it was asked in; every
// non-200 body stays the JSON {"error": …} shape whatever the request
// spoke, so a router can relay a shard's 4xx verbatim.
//
// The vector block inside a frame — count uint32, dim uint32, count·dim
// float32 — is the layout the write-ahead log records add batches in;
// AppendVectorBlock and DecodeVectorBlock are its only encoder and
// decoder (durable.go calls them for WAL records).
package wire

import (
	"io"
	"slices"

	"anna/internal/topk"
)

// Result is one scored neighbour. It is topk's type so a router merges
// decoded reply rows without converting them; the JSON names "id" and
// "score" are written by this package's encoder, never by struct tags.
type Result = topk.Result

// SearchRequest is the body of POST /search.
type SearchRequest struct {
	Queries [][]float32 `json:"queries"`
	// W and K are the search knobs; zero or negative means the server's
	// default.
	W int `json:"w"`
	K int `json:"k"`
	// Backend selects "software" (default, also "") or "anna", the
	// simulated accelerator.
	Backend string `json:"backend,omitempty"`
}

// SearchReply is the 200 body of POST /search: one row of results per
// query, best first.
type SearchReply struct {
	Results [][]Result `json:"results"`
	// Simulated-accelerator cost, present for backend "anna".
	Cycles       int64   `json:"cycles,omitempty"`
	TrafficBytes int64   `json:"traffic_bytes,omitempty"`
	ChipEnergyJ  float64 `json:"chip_energy_j,omitempty"`
}

// AddRequest is the body of POST /add.
type AddRequest struct {
	Vectors [][]float32 `json:"vectors"`
}

// AddReply is the 200 body of POST /add: the IDs FirstID … FirstID+Count-1
// were assigned, in order.
type AddReply struct {
	FirstID int64 `json:"first_id"`
	Count   int   `json:"count"`
}

// MaxK is the largest k a front door accepts in a search request.
// Nothing else bounds it — a frame carries an int32, JSON any integer —
// and the engine sizes a MaxBatch·k result arena from it, so an absurd k
// would be an out-of-memory crash on request. The bound keeps that arena
// at 1024·4096 rows (64 MiB) under the default MaxBatch; the handlers
// answer 400 above it. The decoders do not check it: their accept set is
// pinned to encoding/json's.
const MaxK = 1 << 12

// Codec names one of the two encodings. The zero value is JSON.
type Codec uint8

const (
	JSON Codec = iota
	Frame
)

// Content types of the two codecs.
const (
	JSONContentType  = "application/json"
	FrameContentType = "application/x-anna-frame"
)

// CodecFor returns the codec a request with this Content-Type header
// speaks: Frame for exactly FrameContentType, JSON for everything else
// (absent, "application/json", a charset parameter, anything unknown),
// which is what the server accepted before frames existed.
func CodecFor(contentType string) Codec {
	if contentType == FrameContentType {
		return Frame
	}
	return JSON
}

// ContentType returns the Content-Type header value of bodies in c.
func (c Codec) ContentType() string {
	if c == Frame {
		return FrameContentType
	}
	return JSONContentType
}

// DecodeSearchRequest decodes body into req, reusing the capacity of
// req.Queries and of its rows; fields the body does not mention are
// reset to their zero values. A frame with more than maxBatch queries is
// refused before anything is allocated for it; JSON rows are counted by
// the caller afterwards, as they always were.
func (c Codec) DecodeSearchRequest(req *SearchRequest, body []byte, maxBatch int) error {
	if c == Frame {
		return decodeSearchRequestFrame(req, body, maxBatch)
	}
	return decodeSearchRequestJSON(req, body)
}

// AppendSearchReply appends rep encoded in c to dst.
func (c Codec) AppendSearchReply(dst []byte, rep *SearchReply) ([]byte, error) {
	if c == Frame {
		return appendSearchReplyFrame(dst, rep), nil
	}
	return appendSearchReplyJSON(dst, rep)
}

// DecodeAddRequest decodes body into req, reusing the capacity of
// req.Vectors and of its rows.
func (c Codec) DecodeAddRequest(req *AddRequest, body []byte) error {
	if c == Frame {
		return decodeAddRequestFrame(req, body)
	}
	return decodeAddRequestJSON(req, body)
}

// AppendAddReply appends rep encoded in c to dst.
func (c Codec) AppendAddReply(dst []byte, rep AddReply) []byte {
	if c == Frame {
		return appendAddReplyFrame(dst, rep)
	}
	return appendAddReplyJSON(dst, rep)
}

// bodyPresize caps how much ReadBody allocates on the strength of a
// declared length alone; a longer body grows the buffer as it arrives.
const bodyPresize = 1 << 20

// ReadBody reads r to EOF into dst[:0] and returns the filled buffer.
// hint is the declared length (a request's ContentLength; ≤ 0 when
// unknown) and only sizes the first allocation. With a warm dst the read
// allocates nothing.
func ReadBody(dst []byte, r io.Reader, hint int64) ([]byte, error) {
	// One spare byte lets the read that returns io.EOF land without
	// growing a buffer the body exactly fills.
	want := 512
	if hint > 0 {
		want = int(min(hint, bodyPresize)) + 1
	}
	dst = slices.Grow(dst[:0], want)
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 1)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return dst, err
		}
	}
}
