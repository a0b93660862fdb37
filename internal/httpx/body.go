package httpx

import (
	"errors"
	"io"
	"net/http"

	"anna/internal/wire"
)

// MaxBody is the largest /search or /add body either door reads; a
// longer one is answered 413 undecoded. A constant, sized to admit the
// largest legitimate JSON request: 1024 rows (the default MaxBatch) ×
// 2048 dimensions × 25 bytes — the longest float a JSON client writes,
// "-1.2345678901234567e-308" (the shortest round-trip float64), plus
// its separator — is 50 MiB. A frame spends 4 bytes a float, so the
// same cap carries far more. The repository's own clients (annaload,
// the bench workloads, the tests) send at most a few hundred KiB.
const MaxBody = 1024 * 2048 * 25

// Body is a request-body buffer for a handler's pooled scratch: once
// warm, the read allocates nothing.
type Body struct {
	buf []byte
	lr  io.LimitedReader
}

// errTooLarge is a body over MaxBody.
var errTooLarge = errors.New("too large")

// read fills b with r's body, in the codec its Content-Type names. A
// body over MaxBody is errTooLarge, and its buffer is dropped rather
// than pooled.
func (b *Body) read(r *http.Request) (wire.Codec, error) {
	codec := wire.CodecFor(r.Header.Get("Content-Type"))
	if r.ContentLength > MaxBody {
		return codec, errTooLarge
	}
	b.lr = io.LimitedReader{R: r.Body, N: MaxBody + 1}
	var err error
	b.buf, err = wire.ReadBody(b.buf, &b.lr, r.ContentLength)
	b.lr.R = nil
	if len(b.buf) > MaxBody {
		b.buf, err = nil, errTooLarge
	}
	return codec, err
}

// refuse answers a failed read or decode: 413 over MaxBody, else 400.
func (f *Front) refuse(w http.ResponseWriter, err error) {
	if err == errTooLarge {
		f.HTTPError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxBody)
		return
	}
	f.HTTPError(w, http.StatusBadRequest, "decoding request: %v", err)
}

// Limits are the bounds and defaults a door applies to a search request.
type Limits struct {
	// MaxBatch bounds queries per request (default 1024).
	MaxBatch int
	// DefaultW and DefaultK fill a request's omitted knobs (defaults 32
	// and 10); the router fills them before fan-out, so every shard runs
	// the identical query.
	DefaultW, DefaultK int
}

// DecodeSearch reads and decodes r's body into req, fills the omitted
// knobs, and applies the bounds every door enforces: at least one query,
// at most MaxBatch, k at most wire.MaxK. On failure it has answered the
// request (400, or 413 over MaxBody) and returns ok=false.
func (f *Front) DecodeSearch(w http.ResponseWriter, r *http.Request, b *Body, req *wire.SearchRequest, lim Limits) (wire.Codec, bool) {
	codec, err := b.read(r)
	if err == nil {
		err = codec.DecodeSearchRequest(req, b.buf, lim.MaxBatch)
	}
	if req.W <= 0 {
		req.W = lim.DefaultW
	}
	if req.K <= 0 {
		req.K = lim.DefaultK
	}
	switch {
	case err != nil:
		f.refuse(w, err)
	case len(req.Queries) == 0:
		f.HTTPError(w, http.StatusBadRequest, "no queries")
	case len(req.Queries) > lim.MaxBatch:
		f.HTTPError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Queries), lim.MaxBatch)
	case req.K > wire.MaxK:
		f.HTTPError(w, http.StatusBadRequest, "k of %d exceeds limit %d", req.K, wire.MaxK)
	default:
		return codec, true
	}
	return codec, false
}

// DecodeAdd reads and decodes r's body into req, refusing a batch of no
// vectors. On failure it has answered the request and returns ok=false.
func (f *Front) DecodeAdd(w http.ResponseWriter, r *http.Request, b *Body, req *wire.AddRequest) (wire.Codec, bool) {
	codec, err := b.read(r)
	if err == nil {
		err = codec.DecodeAddRequest(req, b.buf)
	}
	switch {
	case err != nil:
		f.refuse(w, err)
	case len(req.Vectors) == 0:
		f.HTTPError(w, http.StatusBadRequest, "no vectors")
	default:
		return codec, true
	}
	return codec, false
}
