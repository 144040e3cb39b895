package graphio

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestSparse6RoundTripKnown(t *testing.T) {
	cases := []*graph.Graph{
		graph.New(0),
		graph.New(1),
		graph.New(5),
	}
	path := graph.New(6)
	for v := 0; v+1 < 6; v++ {
		path.AddEdge(v, v+1)
	}
	cases = append(cases, path)
	star := graph.New(9)
	for v := 1; v < 9; v++ {
		star.AddEdge(0, v)
	}
	cases = append(cases, star)
	for i, g := range cases {
		s, err := ToSparse6(g)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		back, err := FromSparse6(s)
		if err != nil {
			t.Fatalf("case %d: decode %q: %v", i, s, err)
		}
		if !back.Equal(g) {
			t.Fatalf("case %d: round trip mismatch via %q", i, s)
		}
	}
}

func TestSparse6RoundTripQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 80)
		g := randomGraph(rng, n, float64(pRaw)/255*0.3)
		s, err := ToSparse6(g)
		if err != nil {
			return false
		}
		back, err := FromSparse6(s)
		if err != nil {
			return false
		}
		return back.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSparse6PowerOfTwoSizes(t *testing.T) {
	// The padding corner case lives at n = 2^k: exercise n = 2, 4, 8, 16,
	// 32, 64 with assorted sparse graphs.
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		for trial := 0; trial < 10; trial++ {
			g := randomGraph(rng, n, 0.15)
			s, err := ToSparse6(g)
			if err != nil {
				t.Fatal(err)
			}
			back, err := FromSparse6(s)
			if err != nil || !back.Equal(g) {
				t.Fatalf("n=%d trial %d: round trip failed via %q (err=%v)", n, trial, s, err)
			}
		}
	}
}

func TestSparse6MoreCompactThanGraph6ForSparse(t *testing.T) {
	// A big sparse graph (path on 200 vertices): sparse6 must beat graph6.
	g := graph.New(200)
	for v := 0; v+1 < 200; v++ {
		g.AddEdge(v, v+1)
	}
	s6, err := ToSparse6(g)
	if err != nil {
		t.Fatal(err)
	}
	g6, err := ToGraph6(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s6) >= len(g6) {
		t.Errorf("sparse6 %d bytes >= graph6 %d bytes on a path", len(s6), len(g6))
	}
}

func TestFromSparse6Errors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":      "",
		"no colon":   "Bw",
		"bad header": ":~",
		"bad byte":   ":C\x01",
	} {
		if _, err := FromSparse6(in); err == nil {
			t.Errorf("%s: FromSparse6(%q) accepted bad input", name, in)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6, 65: 7}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// refSparse6 is the plain bit-slice sparse6 encoder: every bit appended to
// a []bool, then packed six to a byte. ToSparse6 packs as it goes and must
// produce the same bytes, because stored journals and atlas lines key on
// them.
func refSparse6(g *graph.Graph) string {
	n := g.N()
	out := []byte{':'}
	if n <= 62 {
		out = append(out, byte(n+63))
	} else {
		out = append(out, 126, byte((n>>12)&63)+63, byte((n>>6)&63)+63, byte(n&63)+63)
	}
	k := bitsFor(n)
	var bs []bool
	put := func(b bool, x int) {
		bs = append(bs, b)
		for i := k - 1; i >= 0; i-- {
			bs = append(bs, x>>uint(i)&1 == 1)
		}
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].V != edges[j].V {
			return edges[i].V < edges[j].V
		}
		return edges[i].U < edges[j].U
	})
	cur := 0
	for _, e := range edges {
		switch {
		case e.V == cur:
			put(false, e.U)
		case e.V == cur+1:
			cur++
			put(true, e.U)
		default:
			cur = e.V
			put(true, e.V)
			put(false, e.U)
		}
	}
	if k < 6 && n == 1<<uint(k) && len(bs)%6 != 0 && cur < n-1 {
		bs = append(bs, false)
	}
	for len(bs)%6 != 0 {
		bs = append(bs, true)
	}
	for i := 0; i < len(bs); i += 6 {
		b := 0
		for _, bit := range bs[i : i+6] {
			b <<= 1
			if bit {
				b |= 1
			}
		}
		out = append(out, byte(b+63))
	}
	return string(out)
}

// TestSparse6MatchesBitSliceReference pins ToSparse6's bytes to the plain
// bit-slice encoder on random graphs — power-of-two sizes (the padding
// corner case) and sizes past 62 (the long header) included — and checks
// that FromSparse6 decodes each string back to the graph.
func TestSparse6MatchesBitSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(70)
		switch trial % 4 {
		case 0:
			n = 1 << uint(rng.Intn(8))
		case 1:
			n = 60 + rng.Intn(300)
		}
		g := randomGraph(rng, n, rng.Float64()*4/float64(n+1))
		got, err := ToSparse6(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSparse6(g); got != want {
			t.Fatalf("n=%d m=%d: ToSparse6 %q, reference %q", n, g.M(), got, want)
		}
		back, err := FromSparse6(got)
		if err != nil || !back.Equal(g) {
			t.Fatalf("n=%d: decode of %q failed (err=%v)", n, got, err)
		}
	}
}
