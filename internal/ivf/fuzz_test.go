package ivf

import (
	"bytes"
	"testing"

	"anna/internal/dataset"
	"anna/internal/pq"
)

// FuzzLoad hardens the index deserializer against corrupt inputs: it
// must return an error, never panic or allocate absurdly, whatever the
// bytes are. The seed corpus includes a valid index and truncations.
func FuzzLoad(f *testing.F) {
	spec := dataset.SIFTLike(500, 2, 1)
	spec.D = 16
	ds := dataset.Generate(spec)
	idx := Build(ds.Base, pq.L2, Config{
		NClusters: 4, M: 4, Ks: 16, CoarseIters: 3, PQIters: 3, Seed: 1,
	})
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-4]) // missing trailer
	// The ANNAIVF2 magic, alone and over a real body: an unknown magic
	// like any other.
	oldMagic := append([]byte("ANNAIVF2"), valid[8:]...)
	f.Add(oldMagic)
	f.Add(oldMagic[:len(oldMagic)/2])
	f.Add([]byte("ANNAIVF2"))
	f.Add([]byte("ANNAIVF3"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are fine. Mutated-but-valid headers can
		// decode to a working index, which must then be searchable.
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.D <= 0 || got.PQ.M <= 0 {
			t.Fatalf("accepted index with bad geometry: D=%d M=%d", got.D, got.PQ.M)
		}
		q := make([]float32, got.D)
		got.Search(q, SearchParams{W: 1, K: 1})
	})
}
