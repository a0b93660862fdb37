package anna

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"anna/internal/wire"
)

// The serving tests predate internal/wire and name the API's messages by
// the handlers' old private types; these aliases keep them reading the
// same now that there is one definition.
type (
	searchRequest  = wire.SearchRequest
	searchResponse = wire.SearchReply
	searchResult   = wire.Result
	addRequest     = wire.AddRequest
	addResponse    = wire.AddReply
)

// post sends body with the given Content-Type ("" sends none) and returns
// the status, the response Content-Type and the body.
func post(t *testing.T, url, contentType string, body []byte) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), b
}

// A frame request is answered with a frame holding the results the JSON
// request gets, bit for bit; and the JSON reply is, byte for byte, what
// encoding/json wrote for those results before the codec was hand-written.
func TestServerAnswersInTheRequestsCodec(t *testing.T) {
	_, ts, base := newTestServer(t)
	req := searchRequest{Queries: [][]float32{base[5], base[9], base[400]}, W: 24, K: 7}
	frame, err := wire.AppendSearchRequestFrame(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	code, ct, body := post(t, ts.URL+"/search", wire.FrameContentType, frame)
	if code != http.StatusOK || ct != wire.FrameContentType {
		t.Fatalf("frame search: status %d, Content-Type %q: %s", code, ct, body)
	}
	var viaFrame searchResponse
	if _, err := wire.DecodeSearchReplyFrame(&viaFrame, body, 0, nil); err != nil {
		t.Fatal(err)
	}
	if len(viaFrame.Results) != 3 || len(viaFrame.Results[0]) != 7 {
		t.Fatalf("frame reply shape %+v", viaFrame)
	}

	type hit struct {
		ID    int64   `json:"id"`
		Score float32 `json:"score"`
	}
	oracle := struct {
		Results [][]hit `json:"results"`
	}{Results: make([][]hit, len(viaFrame.Results))}
	for q, row := range viaFrame.Results {
		for _, r := range row {
			oracle.Results[q] = append(oracle.Results[q], hit{r.ID, r.Score})
		}
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(oracle); err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := json.Marshal(req)
	for _, contentType := range []string{"", "application/json", "application/json; charset=utf-8", "text/plain"} {
		code, ct, body := post(t, ts.URL+"/search", contentType, jsonBody)
		if code != http.StatusOK || ct != "application/json" {
			t.Fatalf("Content-Type %q: status %d, reply Content-Type %q", contentType, code, ct)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("Content-Type %q: JSON reply\n%s\nencoding/json over the frame's results\n%s", contentType, body, want.Bytes())
		}
	}
}

// Whatever the request spoke, a non-200 body is the JSON error shape, and
// a frame gets every check a JSON body gets for free.
func TestServerFrameErrorsAreJSON(t *testing.T) {
	s, ts, base := newTestServer(t)
	s.MaxBatch = 2
	frameOf := func(req searchRequest) []byte {
		b, err := wire.AppendSearchRequestFrame(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := frameOf(searchRequest{Queries: [][]float32{base[0]}})
	poison := func(bits uint32) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[len(b)-4:], bits)
		return b
	}
	for name, c := range map[string]struct {
		frame []byte
		want  string
	}{
		"wrong dim":     {frameOf(searchRequest{Queries: [][]float32{{1, 2}}}), "dim"},
		"over MaxBatch": {frameOf(searchRequest{Queries: [][]float32{base[0], base[1], base[2]}}), "exceeds limit 2"},
		"no queries":    {frameOf(searchRequest{}), "no queries"},
		"huge k":        {frameOf(searchRequest{Queries: [][]float32{base[0]}, K: math.MaxInt32}), "k of 2147483647 exceeds limit"},
		"truncated":     {good[:len(good)-2], "malformed"},
		"wrong kind":    {append([]byte{3}, good[1:]...), "malformed"},
		"version 2":     {append([]byte{good[0], 2}, good[2:]...), "version"},
		"JSON as frame": {[]byte(`{"queries":[[1]]}`), "malformed"},
		"NaN":           {poison(math.Float32bits(float32(math.NaN()))), "non-finite"},
		"+Inf":          {poison(math.Float32bits(float32(math.Inf(1)))), "non-finite"},
	} {
		code, ct, body := post(t, ts.URL+"/search", wire.FrameContentType, c.frame)
		var e struct {
			Error string `json:"error"`
		}
		if code != http.StatusBadRequest || ct != "application/json" || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, c.want) {
			t.Errorf("%s: status %d, Content-Type %q, body %s; want a JSON 400 mentioning %q", name, code, ct, body, c.want)
		}
	}
}

// /add takes frames too, refuses non-finite components before they reach
// the WAL or the index, and acknowledges in the request's codec.
func TestServerFrameAdd(t *testing.T) {
	s, ts, base := newTestServer(t)
	before := s.idx.Len()
	vecs := [][]float32{base[1], base[2]}
	frame, err := wire.AppendAddRequestFrame(nil, &addRequest{Vectors: vecs})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(frame)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], math.Float32bits(float32(math.Inf(-1))))
	if code, ct, body := post(t, ts.URL+"/add", wire.FrameContentType, bad); code != http.StatusBadRequest || ct != "application/json" {
		t.Fatalf("-Inf component: status %d, Content-Type %q: %s", code, ct, body)
	}
	if s.idx.Len() != before {
		t.Fatal("a refused frame reached the index")
	}
	code, ct, body := post(t, ts.URL+"/add", wire.FrameContentType, frame)
	ar, err := wire.DecodeAddReplyFrame(body)
	if code != http.StatusOK || ct != wire.FrameContentType || err != nil {
		t.Fatalf("frame add: status %d, Content-Type %q, err %v", code, ct, err)
	}
	if ar.FirstID != int64(before) || ar.Count != 2 || s.idx.Len() != before+2 {
		t.Fatalf("ack %+v, index grew %d → %d", ar, before, s.idx.Len())
	}
	// The same batch as JSON: the acknowledgment bytes are encoding/json's.
	jsonBody, _ := json.Marshal(addRequest{Vectors: vecs})
	code, ct, body = post(t, ts.URL+"/add", "application/json", jsonBody)
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(addResponse{FirstID: int64(before + 2), Count: 2})
	if code != http.StatusOK || ct != "application/json" || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("JSON add: status %d, Content-Type %q, body %s, want %s", code, ct, body, want.Bytes())
	}
}
