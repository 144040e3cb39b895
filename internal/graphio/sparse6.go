package graphio

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/graph"
)

// ToSparse6 encodes g in the standard sparse6 format (":" prefix), which is
// far more compact than graph6 for the sparse graphs this library mostly
// handles (trees, tori, equilibria with m = O(n)). Edges are written in
// (max endpoint, min endpoint) order straight from the adjacency, and the
// bit stream is packed into output bytes as it is produced, so an encode
// allocates little beyond the output string — it runs on every request
// the service keys by its exact graph.
func ToSparse6(g *graph.Graph) (string, error) {
	n := g.N()
	var sb strings.Builder
	sb.WriteByte(':')
	switch {
	case n <= 62:
		sb.WriteByte(byte(n + 63))
	case n <= 258047:
		sb.WriteByte(126)
		sb.WriteByte(byte((n>>12)&63) + 63)
		sb.WriteByte(byte((n>>6)&63) + 63)
		sb.WriteByte(byte(n&63) + 63)
	default:
		return "", fmt.Errorf("graphio: sparse6 n=%d too large", n)
	}
	k := uint(bitsFor(n))
	sb.Grow((g.M()*int(2*(k+1)) + 5) / 6)
	w := sixBits{sb: &sb}
	// Edges sorted by (max endpoint, min endpoint).
	cur := 0
	var lower []int
	for v := 0; v < n; v++ {
		lower = g.AppendNeighbors(lower[:0], v)
		lower = slices.DeleteFunc(lower, func(u int) bool { return u > v })
		slices.Sort(lower)
		for _, u := range lower {
			switch {
			case v == cur:
				w.put(uint64(u), k+1)
			case v == cur+1:
				cur++
				w.put(1<<k|uint64(u), k+1)
			default:
				cur = v
				w.put(1<<k|uint64(v), k+1)
				w.put(uint64(u), k+1)
			}
		}
	}
	// Pad with 1-bits to a multiple of 6 (with the special n=2^k corner
	// case handled conservatively by padding a 0 first when needed).
	if k < 6 && n == 1<<k && w.bits%6 != 0 && cur < n-1 {
		w.put(0, 1)
	}
	if r := w.bits % 6; r != 0 {
		w.put(1<<uint(6-r)-1, uint(6-r))
	}
	return sb.String(), nil
}

// sixBits packs a sparse6 bit stream into printable bytes, six bits per
// byte, most significant bit first.
type sixBits struct {
	sb   *strings.Builder
	acc  uint64 // pending bits, fewer than six of them between puts
	n    uint   // number of pending bits
	bits int    // bits written so far
}

// put appends the low width bits of x (width <= 32), most significant
// first.
func (w *sixBits) put(x uint64, width uint) {
	w.acc = w.acc<<width | x&(1<<width-1)
	w.n += width
	w.bits += int(width)
	for w.n >= 6 {
		w.n -= 6
		w.sb.WriteByte(byte(w.acc>>w.n&63) + 63)
	}
	w.acc &= 1<<w.n - 1
}

// FromSparse6 decodes a sparse6 string produced by ToSparse6 (or standard
// tools).
func FromSparse6(s string) (*graph.Graph, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != ':' {
		return nil, fmt.Errorf("graphio: sparse6 must start with ':'")
	}
	data := []byte(s[1:])
	pos := 0
	var n int
	if data[pos] == 126 {
		if len(data) < 4 {
			return nil, fmt.Errorf("graphio: truncated sparse6 header")
		}
		n = int(data[1]-63)<<12 | int(data[2]-63)<<6 | int(data[3]-63)
		pos = 4
	} else {
		n = int(data[0] - 63)
		pos = 1
	}
	if n < 0 {
		return nil, fmt.Errorf("graphio: invalid sparse6 size")
	}
	k := bitsFor(n)
	// The bit stream: six bits per byte, most significant first.
	payload := data[pos:]
	for _, c := range payload {
		if c < 63 || c > 126 {
			return nil, fmt.Errorf("graphio: invalid sparse6 byte %q", c)
		}
	}
	total := 6 * len(payload)
	bitAt := func(i int) bool { return (payload[i/6]-63)>>uint(5-i%6)&1 == 1 }
	g := graph.New(n)
	cur := 0
	i := 0
	readK := func() (int, bool) {
		if i+k > total {
			return 0, false
		}
		x := 0
		for t := 0; t < k; t++ {
			x <<= 1
			if bitAt(i) {
				x |= 1
			}
			i++
		}
		return x, true
	}
	for i < total {
		b := bitAt(i)
		i++
		if b {
			cur++
		}
		x, ok := readK()
		if !ok {
			break // padding
		}
		if x >= n || cur >= n {
			break // padding reached
		}
		if x > cur {
			cur = x
		} else if x != cur {
			g.AddEdge(x, cur)
		}
		// x == cur with b set only moves the pointer (loop edges are
		// invalid in simple graphs and do not occur in our encoder).
	}
	return g, nil
}

// bitsFor returns ceil(log2(n)) with the sparse6 convention (>= 1).
func bitsFor(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
