package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The oracle for the JSON codec is encoding/json over the same structs,
// driven the way the handlers drove it before this package existed:
// json.NewDecoder(body).Decode(&req) and json.NewEncoder(w).Encode(rep).

// sameVectors compares decoded float matrices bit for bit. A nil and an
// empty slice are the same decoded value here: every reader of these
// structs looks at len alone.
func sameVectors(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkSearchJSON decodes body with both decoders, once into a fresh
// request and once into a dirty pooled one.
func checkSearchJSON(t *testing.T, body []byte) {
	t.Helper()
	var want SearchRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	dirty := SearchRequest{Queries: [][]float32{{9, 9, 9}, {8}}, W: 77, K: 88, Backend: "stale"}
	for _, got := range []*SearchRequest{{}, &dirty} {
		err := JSON.DecodeSearchRequest(got, body, 4)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("body %q: wire err = %v, encoding/json err = %v", body, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !sameVectors(got.Queries, want.Queries) || got.W != want.W || got.K != want.K || got.Backend != want.Backend {
			t.Fatalf("body %q:\nwire          %+v\nencoding/json %+v", body, *got, want)
		}
	}
}

func checkAddJSON(t *testing.T, body []byte) {
	t.Helper()
	var want AddRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	dirty := AddRequest{Vectors: [][]float32{{9, 9, 9}, {8}}}
	for _, got := range []*AddRequest{{}, &dirty} {
		err := JSON.DecodeAddRequest(got, body)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("body %q: wire err = %v, encoding/json err = %v", body, err, wantErr)
		}
		if err == nil && !sameVectors(got.Vectors, want.Vectors) {
			t.Fatalf("body %q:\nwire          %v\nencoding/json %v", body, got.Vectors, want.Vectors)
		}
	}
}

// benchSearchBody and benchAddBody render requests the way the
// repository benchmark's clients do (bench/workloads.go searchBody and
// addBody): shortest 'g' formatting of each float32, no whitespace.
func benchSearchBody(qs [][]float32, knobs bool) []byte {
	b := appendBenchVectors([]byte(`{"queries":`), qs)
	if knobs {
		b = append(b, `,"w":32,"k":10`...)
	}
	return append(b, '}')
}

func benchAddBody(vecs [][]float32) []byte {
	return append(appendBenchVectors([]byte(`{"vectors":`), vecs), '}')
}

func appendBenchVectors(dst []byte, vecs [][]float32) []byte {
	dst = append(dst, '[')
	for i, v := range vecs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, f := range v {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, float64(f), 'g', -1, 32)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

func randVectors(rng *rand.Rand, n, dim int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, dim)
		for j := range out[i] {
			out[i][j] = float32(rng.NormFloat64())
		}
	}
	return out
}

// jsonSeeds are request bodies on every edge the decoder documents; the
// key is spliced in as "queries" or "vectors".
func jsonSeeds(key string) []string {
	seeds := []string{
		`{"KEY":[[1,2,3]]}`,
		`{"KEY":[[1,2,3],[4,5,6]],"w":8,"k":5,"backend":"software"}`,
		`{"KEY":[[0.25,-1.5e-3,3E+2,1e-46,-0,0.0,1e38]]}`,
		`{"KEY":[[1e39]]}`, `{"KEY":[[3.5e38]]}`, `{"KEY":[[-1e400]]}`,
		" \t\r\n{ \"KEY\" : [ [ 1 , 2 ] , [ ] ] , \"w\" : 3 } trailing garbage",
		`{"KEY":[[1]]}{"KEY":[[2]]}`,
		`{"KEY":[[1]],"KEY":[[2,3],[4]]}`, `{"KEY":[[1]],"KEY":null}`,
		`{"KEY":null}`, `{"KEY":[null,[1]]}`, `{"KEY":[[null,2]]}`, `{"KEY":[]}`, `{"KEY":[[]]}`,
		`null`, `nullx`, ` null `, `nul`, `{}`, ``, `   `, `[]`, `7`, `"s"`, `true`,
		`{"Key":[[1]]}`, `{"` + strings.ToUpper(key) + `":[[1]],"W":2,"K":3,"BackEnd":"anna"}`,
		`{"\u0071ueries":[[5]],"\u0076ectors":[[6]],"\u212a":4,"querie\u017f":[[7]],"vector\u017f":[[8]]}`,
		"{\"querie\u017f\":[[7]],\"vector\u017f\":[[8]],\"\u212a\":9}",
		"{\"querie\xff\":[[7]],\"k\xff\":9}",
		`{"w":1.0}`, `{"w":1e2}`, `{"w":-3}`, `{"w":-0}`, `{"w":"3"}`, `{"w":null,"k":null}`,
		`{"w":9223372036854775807}`, `{"w":9223372036854775808}`, `{"w":01}`,
		`{"backend":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00\ud83d\udc00x"}`, `{"backend":null}`, `{"backend":7}`,
		"{\"backend\":\"\xff\xfe\"}", "{\"backend\":\"a\x01b\"}", `{"backend":"\x"}`, `{"backend":"\u12g4"}`,
		`{"other":{"a":[1,{"b":null}],"c":"}"},"KEY":[[1]]}`, `{"other":[1,2,}`, `{"other":tru}`,
		`{"KEY":[[1,]]}`, `{"KEY":[[1]],}`, `{"KEY":[[1] [2]]}`, `{"KEY":[[1.]]}`, `{"KEY":[[.5]]}`,
		`{"KEY":[[+1]]}`, `{"KEY":[[1e]]}`, `{"KEY":[[-]]}`, `{"KEY":[[01]]}`, `{"KEY":[[1]]`, `{"KEY":[[1`,
		`{"KEY":[["1"]]}`, `{"KEY":[[true]]}`, `{"KEY":[[{}]]}`, `{"KEY":[[[1]]]}`, `{"KEY":[1]}`,
		`{"KEY":"abc"}`, `{"KEY":{}}`, `{"KEY":7}`, `{KEY:[[1]]}`, `{"KEY" [[1]]}`, `{"KEY":}`,
		`{"KEY":[[NaN]]}`, `{"KEY":[[Infinity]]}`, `{"KEY":[[0x10]]}`, `{"KEY":[[1_0]]}`,
		`{"deep":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"deep":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	}
	for i, s := range seeds {
		seeds[i] = strings.ReplaceAll(s, "KEY", key)
	}
	return seeds
}

func FuzzSearchJSONDiff(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add(benchSearchBody(randVectors(rng, 1, 64), false))
	f.Add(benchSearchBody(randVectors(rng, 1, 64), true))
	f.Add(benchSearchBody(randVectors(rng, 3, 8), false))
	for _, s := range jsonSeeds("queries") {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkSearchJSON(t, body) })
}

func FuzzAddJSONDiff(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	f.Add(benchAddBody(randVectors(rng, 16, 64)))
	for _, s := range jsonSeeds("vectors") {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAddJSON(t, body) })
}

// oracleReply mirrors SearchReply with the struct tags the handlers'
// reply types carried when encoding/json wrote them.
type oracleReply struct {
	Results [][]struct {
		ID    int64   `json:"id"`
		Score float32 `json:"score"`
	} `json:"results"`
	Cycles       int64   `json:"cycles,omitempty"`
	TrafficBytes int64   `json:"traffic_bytes,omitempty"`
	ChipEnergyJ  float64 `json:"chip_energy_j,omitempty"`
}

func encodeOracle(t *testing.T, rep *SearchReply) []byte {
	t.Helper()
	var o oracleReply
	if rep.Results != nil {
		o.Results = make([][]struct {
			ID    int64   `json:"id"`
			Score float32 `json:"score"`
		}, len(rep.Results))
	}
	for i, row := range rep.Results {
		if row == nil {
			continue
		}
		o.Results[i] = make([]struct {
			ID    int64   `json:"id"`
			Score float32 `json:"score"`
		}, len(row))
		for j, r := range row {
			o.Results[i][j].ID, o.Results[i][j].Score = r.ID, r.Score
		}
	}
	o.Cycles, o.TrafficBytes, o.ChipEnergyJ = rep.Cycles, rep.TrafficBytes, rep.ChipEnergyJ
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The reply encoder must write the bytes json.NewEncoder wrote: 10^5
// random finite float32 scores drawn uniformly over bit patterns (so
// every exponent, the e-7 and 1e21 notation switches included, is hit),
// plus the switch points themselves.
func TestSearchReplyJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scores := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 1e-6, 9.999999e-7, 1e-7, 1e21, 9.999999e20,
		1e20, math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1e-45, 0.1, 100, 123456790, 1.5e-10}
	for len(scores) < 100_000 {
		if f := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
			scores = append(scores, f)
		}
	}
	var buf []byte
	for len(scores) > 0 {
		rep := &SearchReply{Results: make([][]Result, 1+rng.Intn(3))}
		for q := range rep.Results {
			n := min(rng.Intn(12), len(scores))
			rep.Results[q] = make([]Result, n)
			for j := range rep.Results[q] {
				rep.Results[q][j] = Result{ID: rng.Int63() - rng.Int63(), Score: scores[j]}
			}
			scores = scores[n:]
		}
		var err error
		if buf, err = JSON.AppendSearchReply(buf[:0], rep); err != nil {
			t.Fatal(err)
		}
		if want := encodeOracle(t, rep); !bytes.Equal(buf, want) {
			t.Fatalf("reply bytes differ:\nwire          %s\nencoding/json %s", buf, want)
		}
	}
}

func TestReplyJSONShapes(t *testing.T) {
	for _, rep := range []*SearchReply{
		{},
		{Results: [][]Result{}},
		{Results: [][]Result{nil, {}, {{ID: -5, Score: 0.5}}}},
		{Results: [][]Result{{{ID: 1, Score: 2}}}, Cycles: 12345, TrafficBytes: 1 << 40, ChipEnergyJ: 3.25e-9},
		{Results: [][]Result{{}}, ChipEnergyJ: 1e21, Cycles: -1},
	} {
		got, err := JSON.AppendSearchReply(nil, rep)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeOracle(t, rep); !bytes.Equal(got, want) {
			t.Errorf("reply bytes differ:\nwire          %s\nencoding/json %s", got, want)
		}
	}
	// A non-finite score is an encoding error that writes nothing, as it
	// is for encoding/json.
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		got, err := JSON.AppendSearchReply([]byte("x"), &SearchReply{Results: [][]Result{{{Score: bad}}}})
		if err == nil || string(got) != "x" {
			t.Errorf("score %v: got %q, err %v; want the prefix alone and an error", bad, got, err)
		}
	}
	for _, rep := range []AddReply{{}, {FirstID: 1 << 41, Count: 16}, {FirstID: -1, Count: -2}} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rep); err != nil {
			t.Fatal(err)
		}
		if got := JSON.AppendAddReply(nil, rep); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("add reply: wire %s, encoding/json %s", got, want.Bytes())
		}
	}
}

// A warm request decodes the benchmark's single-query body without
// allocating, and so does encoding its reply.
func TestJSONSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	body := benchSearchBody(randVectors(rng, 1, 64), true)
	var req SearchRequest
	rep := &SearchReply{Results: [][]Result{make([]Result, 10)}}
	for i := range rep.Results[0] {
		rep.Results[0][i] = Result{ID: rng.Int63(), Score: float32(rng.NormFloat64())}
	}
	var out []byte
	run := func() {
		if err := JSON.DecodeSearchRequest(&req, body, 1024); err != nil {
			t.Fatal(err)
		}
		out, _ = JSON.AppendSearchReply(out[:0], rep)
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("warm JSON decode + encode allocates %.1f times per request, want 0", avg)
	}
}

func BenchmarkDecodeSearchJSON(b *testing.B) {
	body := benchSearchBody(randVectors(rand.New(rand.NewSource(3)), 1, 64), false)
	b.Run("wire", func(b *testing.B) {
		var req SearchRequest
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := JSON.DecodeSearchRequest(&req, body, 1024); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		var req SearchRequest
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req.Queries = req.Queries[:0]
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame", func(b *testing.B) {
		var req SearchRequest
		if err := JSON.DecodeSearchRequest(&req, body, 1024); err != nil {
			b.Fatal(err)
		}
		frame, err := AppendSearchRequestFrame(nil, &req)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Frame.DecodeSearchRequest(&req, frame, 1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}
