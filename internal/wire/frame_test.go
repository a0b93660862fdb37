package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func randReply(rng *rand.Rand, nq int) *SearchReply {
	rep := &SearchReply{Results: make([][]Result, nq)}
	for q := range rep.Results {
		rep.Results[q] = make([]Result, rng.Intn(12))
		for j := range rep.Results[q] {
			rep.Results[q][j] = Result{ID: rng.Int63n(1 << 40), Score: float32(rng.NormFloat64())}
		}
	}
	if rng.Intn(2) == 0 {
		rep.Cycles, rep.TrafficBytes, rep.ChipEnergyJ = rng.Int63(), rng.Int63(), rng.Float64()
	}
	return rep
}

func sameReply(a, b *SearchReply, idBase int64) bool {
	if len(a.Results) != len(b.Results) || a.Cycles != b.Cycles || a.TrafficBytes != b.TrafficBytes ||
		math.Float64bits(a.ChipEnergyJ) != math.Float64bits(b.ChipEnergyJ) {
		return false
	}
	for q := range a.Results {
		if len(a.Results[q]) != len(b.Results[q]) {
			return false
		}
		for j, r := range a.Results[q] {
			if g := b.Results[q][j]; g.ID != r.ID+idBase || math.Float32bits(g.Score) != math.Float32bits(r.Score) {
				return false
			}
		}
	}
	return true
}

// Every message survives encode → decode unchanged, into fresh and into
// reused (pooled) destinations; a decoded frame re-encodes to the same
// bytes; no proper prefix and no extension of a valid frame decodes.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var pooledReq SearchRequest
	var pooledAdd AddRequest
	var pooledRep SearchReply
	var arena []Result
	mangled := func(frame []byte, decode func([]byte) error) {
		t.Helper()
		for cut := 0; cut < len(frame); cut += 1 + cut/8 {
			if decode(frame[:cut]) == nil {
				t.Fatalf("%d-byte prefix of a %d-byte frame decoded", cut, len(frame))
			}
		}
		if decode(append(frame[:len(frame):len(frame)], 0)) == nil {
			t.Fatal("frame with a trailing byte decoded")
		}
	}
	for it := 0; it < 300; it++ {
		nq, dim := rng.Intn(5), 1+rng.Intn(40)
		req := &SearchRequest{Queries: randVectors(rng, nq, dim), W: rng.Intn(200) - 20, K: rng.Intn(200) - 20,
			Backend: backends[rng.Intn(len(backends))]}
		frame, err := AppendSearchRequestFrame(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*SearchRequest{{}, &pooledReq} {
			if err := Frame.DecodeSearchRequest(got, frame, 8); err != nil {
				t.Fatal(err)
			}
			if !sameVectors(got.Queries, req.Queries) || got.W != req.W || got.K != req.K || got.Backend != req.Backend {
				t.Fatalf("search request round trip:\n got %+v\nwant %+v", *got, *req)
			}
			if again, _ := AppendSearchRequestFrame(nil, got); !bytes.Equal(again, frame) {
				t.Fatal("search request frame is not canonical")
			}
		}
		mangled(frame, func(b []byte) error { return Frame.DecodeSearchRequest(&SearchRequest{}, b, 8) })

		add := &AddRequest{Vectors: randVectors(rng, 1+rng.Intn(20), dim)}
		if frame, err = AppendAddRequestFrame(nil, add); err != nil {
			t.Fatal(err)
		}
		for _, got := range []*AddRequest{{}, &pooledAdd} {
			if err := Frame.DecodeAddRequest(got, frame); err != nil {
				t.Fatal(err)
			}
			if !sameVectors(got.Vectors, add.Vectors) {
				t.Fatal("add request round trip differs")
			}
		}
		mangled(frame, func(b []byte) error { return Frame.DecodeAddRequest(&AddRequest{}, b) })

		rep, idBase := randReply(rng, nq), int64(rng.Intn(4))<<40
		frame, _ = Frame.AppendSearchReply(nil, rep)
		for _, got := range []*SearchReply{{}, &pooledRep} {
			before := len(arena)
			if arena, err = DecodeSearchReplyFrame(got, frame, idBase, arena); err != nil {
				t.Fatal(err)
			}
			if !sameReply(rep, got, idBase) {
				t.Fatalf("search reply round trip:\n got %+v\nwant %+v (+%d)", *got, *rep, idBase)
			}
			total := 0
			for _, row := range got.Results {
				total += len(row)
			}
			if len(arena)-before != total {
				t.Fatalf("arena grew by %d for %d results", len(arena)-before, total)
			}
		}
		arena = arena[:0]
		mangled(frame, func(b []byte) error {
			_, err := DecodeSearchReplyFrame(&SearchReply{}, b, 0, nil)
			return err
		})

		ar := AddReply{FirstID: rng.Int63n(1 << 40), Count: rng.Intn(1 << 20)}
		frame = Frame.AppendAddReply(nil, ar)
		if got, err := DecodeAddReplyFrame(frame); err != nil || got != ar {
			t.Fatalf("add reply round trip: %+v, %v; want %+v", got, err, ar)
		}
		mangled(frame, func(b []byte) error { _, err := DecodeAddReplyFrame(b); return err })
	}
}

// What JSON refuses for free, a frame decoder must refuse by hand.
func TestFrameRejects(t *testing.T) {
	good, err := AppendSearchRequestFrame(nil, &SearchRequest{Queries: [][]float32{{1, 2}, {3, 4}}, W: 8, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	for name, c := range map[string]struct {
		frame []byte
		want  string
	}{
		"kind":       {edit(func(b []byte) { b[0] = kindAddRequest }), "kind"},
		"version":    {edit(func(b []byte) { b[1] = 2 }), "version"},
		"backend":    {edit(func(b []byte) { b[2] = 3 }), "backend"},
		"reserved":   {edit(func(b []byte) { b[3] = 1 }), "header bytes"},
		"huge count": {edit(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1<<31) }), "payload bytes"},
		"huge dim":   {edit(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 1<<20) }), "dim"},
		"zero dim":   {edit(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 0) }), "dim"},
		"NaN":        {edit(func(b []byte) { binary.LittleEndian.PutUint32(b[20:], math.Float32bits(float32(math.NaN()))) }), "non-finite"},
		"+Inf":       {edit(func(b []byte) { binary.LittleEndian.PutUint32(b[28:], math.Float32bits(float32(math.Inf(1)))) }), "non-finite"},
		"-Inf":       {edit(func(b []byte) { binary.LittleEndian.PutUint32(b[32:], math.Float32bits(float32(math.Inf(-1)))) }), "non-finite"},
		"json":       {[]byte(`{"queries":[[1,2]]}`), "kind"},
		"empty":      {nil, "0-byte"},
	} {
		err := Frame.DecodeSearchRequest(&SearchRequest{}, c.frame, 1024)
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ErrMalformed mentioning %q", name, err, c.want)
		}
	}
	// Over the batch limit is the caller's 400 message, not a malformed frame.
	if err := Frame.DecodeSearchRequest(&SearchRequest{}, good, 1); err == nil || err.Error() != "batch of 2 exceeds limit 1" {
		t.Errorf("over maxBatch: err = %v", err)
	}
	// /add frames refuse non-finite components too.
	add, _ := AppendAddRequestFrame(nil, &AddRequest{Vectors: [][]float32{{1, 2}}})
	binary.LittleEndian.PutUint32(add[headerLen+8:], math.Float32bits(float32(math.Inf(1))))
	if err := Frame.DecodeAddRequest(&AddRequest{}, add); !errors.Is(err, ErrMalformed) {
		t.Errorf("add frame with +Inf: err = %v", err)
	}
	// A refused frame leaves the caller's pooled rows in place.
	pooled := SearchRequest{Queries: [][]float32{{7, 7}}}
	if err := Frame.DecodeSearchRequest(&pooled, good[:len(good)-1], 1024); err == nil || cap(pooled.Queries) == 0 {
		t.Errorf("refused frame: err = %v, pooled rows %v", err, pooled.Queries)
	}
}

// What a frame cannot carry is refused at encode time, where a router
// turns it into a 400.
func TestFrameEncodeRefuses(t *testing.T) {
	cases := map[string]*SearchRequest{
		"ragged":  {Queries: [][]float32{{1, 2}, {3}}},
		"empty":   {Queries: [][]float32{{}}},
		"backend": {Queries: [][]float32{{1}}, Backend: "gpu"},
	}
	if over := int64(math.MaxInt32) + 1; int64(int(over)) == over { // an int that holds it
		cases["w"] = &SearchRequest{Queries: [][]float32{{1}}, W: int(over)}
	}
	for name, req := range cases {
		if b, err := AppendSearchRequestFrame([]byte("x"), req); err == nil || string(b) != "x" {
			t.Errorf("%s: got %q, err %v; want the prefix alone and an error", name, b, err)
		}
	}
	if _, err := AppendAddRequestFrame(nil, &AddRequest{Vectors: [][]float32{{1, 2}, {3}}}); err == nil {
		t.Error("ragged add batch framed")
	}
}

// frameAllocBound is the "small multiple" of FuzzDecodeFrame: the worst
// honest frame is a block of dim-1 vectors, 24 bytes of slice header and
// 4 of payload per 4 input bytes, plus size-class rounding; the constant
// covers the error value of a refused frame.
func frameAllocBound(n int) uint64 { return 8*uint64(n) + 4096 }

// decodeAll runs every frame decoder over b, as a server, a router and a
// WAL replay would.
func decodeAll(b []byte) (req SearchRequest, add AddRequest, rep SearchReply, reqErr, addErr, repErr error) {
	reqErr = Frame.DecodeSearchRequest(&req, b, 1024)
	addErr = Frame.DecodeAddRequest(&add, b)
	_, repErr = DecodeSearchReplyFrame(&rep, b, 1<<40, nil)
	DecodeAddReplyFrame(b)
	DecodeVectorBlock(nil, b, -1)
	return
}

func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	sr, _ := AppendSearchRequestFrame(nil, &SearchRequest{Queries: randVectors(rng, 2, 8), W: 32, K: 10})
	ar, _ := AppendAddRequestFrame(nil, &AddRequest{Vectors: randVectors(rng, 3, 4)})
	f.Add(sr)
	f.Add(ar)
	f.Add(appendSearchReplyFrame(nil, randReply(rng, 3)))
	f.Add(appendAddReplyFrame(nil, AddReply{FirstID: 7, Count: 3}))
	f.Add(sr[:len(sr)-3])
	f.Add(append(bytes.Clone(sr[:12]), 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0)) // 2^32-1 vectors of dim 1, no payload
	f.Add(append(bytes.Clone(sr[:12]), 1, 0, 0, 0, 0, 0, 0, 0))             // one vector of dim 0
	f.Add([]byte{kindSearchReply, frameVersion, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Allocation is measured around the decoders; a concurrent runtime
		// allocation could inflate one reading, so take the best of three.
		var alloc uint64 = math.MaxUint64
		var ms0, ms1 runtime.MemStats
		for try := 0; try < 3 && alloc > frameAllocBound(len(b)); try++ {
			runtime.ReadMemStats(&ms0)
			decodeAll(b)
			runtime.ReadMemStats(&ms1)
			alloc = min(alloc, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if alloc > frameAllocBound(len(b)) {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes, bound %d", len(b), alloc, frameAllocBound(len(b)))
		}
		// Whatever decodes is canonical and free of non-finite components.
		req, add, rep, reqErr, addErr, repErr := decodeAll(b)
		if reqErr == nil {
			if again, err := AppendSearchRequestFrame(nil, &req); err != nil || !bytes.Equal(again, b) {
				t.Fatalf("decoded search request re-encodes differently (err %v)", err)
			}
		}
		if addErr == nil {
			if again, err := AppendAddRequestFrame(nil, &add); err != nil || !bytes.Equal(again, b) {
				t.Fatalf("decoded add request re-encodes differently (err %v)", err)
			}
		}
		for _, vecs := range [][][]float32{req.Queries, add.Vectors} {
			for _, v := range vecs {
				for _, x := range v {
					if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
						t.Fatalf("decoded a non-finite component %v", x)
					}
				}
			}
		}
		if repErr == nil {
			var back SearchReply
			for _, row := range rep.Results {
				r := make([]Result, len(row))
				for j := range row {
					r[j] = Result{ID: row[j].ID - 1<<40, Score: row[j].Score}
				}
				back.Results = append(back.Results, r)
			}
			back.Cycles, back.TrafficBytes, back.ChipEnergyJ = rep.Cycles, rep.TrafficBytes, rep.ChipEnergyJ
			if again := appendSearchReplyFrame(nil, &back); !bytes.Equal(again, b) {
				t.Fatal("decoded search reply re-encodes differently")
			}
		}
	})
}

// The vector block is the WAL's add-record layout; pin its bytes.
func TestVectorBlockGolden(t *testing.T) {
	got := AppendVectorBlock([]byte{0xAA}, [][]float32{{1, -2.5}, {0, 0.5}})
	want := []byte{0xAA,
		2, 0, 0, 0, 2, 0, 0, 0,
		0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x20, 0xc0,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3f}
	if !bytes.Equal(got, want) {
		t.Fatalf("vector block bytes\n got % x\nwant % x", got, want)
	}
	rows, err := DecodeVectorBlock(nil, got[1:], -1)
	if err != nil || !reflect.DeepEqual(rows, [][]float32{{1, -2.5}, {0, 0.5}}) {
		t.Fatalf("decoded %v, %v", rows, err)
	}
	if empty := AppendVectorBlock(nil, nil); !bytes.Equal(empty, make([]byte, 8)) {
		t.Fatalf("empty block % x", empty)
	}
}

func TestCodecFor(t *testing.T) {
	for ct, want := range map[string]Codec{
		"":                                JSON,
		"application/json":                JSON,
		"application/json; charset=utf-8": JSON,
		"text/plain":                      JSON,
		"application/x-anna-frame":        Frame,
		"application/x-anna-frame; v=1":   JSON,
		"Application/X-Anna-Frame":        JSON,
	} {
		if got := CodecFor(ct); got != want {
			t.Errorf("CodecFor(%q) = %v, want %v", ct, got, want)
		}
	}
	if CodecFor(Frame.ContentType()) != Frame || CodecFor(JSON.ContentType()) != JSON {
		t.Error("ContentType does not round-trip through CodecFor")
	}
}

func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 300)
	for _, hint := range []int64{-1, 0, 10, int64(len(payload)), 1 << 40} {
		got, err := ReadBody(nil, bytes.NewReader(payload), hint)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("hint %d: read %d bytes, err %v", hint, len(got), err)
		}
		if cap(got) > 2*bodyPresize {
			t.Fatalf("hint %d: buffer of %d bytes for a %d-byte body", hint, cap(got), len(payload))
		}
	}
	buf := make([]byte, 0, len(payload)+1)
	if avg := testing.AllocsPerRun(20, func() {
		r := bytes.NewReader(payload)
		buf, _ = ReadBody(buf, r, int64(len(payload)))
	}); avg > 1 { // the reader itself
		t.Errorf("warm ReadBody allocates %.1f times", avg)
	}
}
