package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// workload is one seeded request sequence. Stream s of a workload is the
// request sequence of connection s; stream(s) returns a fresh generator,
// so the traced run can replay exactly the bytes the timed run sent.
type workload struct {
	name string
	// conns is the number of closed-loop connections; conns × the
	// requests' workers fits the host's two cores.
	conns int
	// hot holds the distinct requests the streams draw from (check-hot,
	// dynamics); nil when every request is distinct (check-distinct).
	hot []request
	// warmup is sent once per set-up, one slice per connection, before
	// the timed window.
	warmup [][]request
	// stream returns connection s's timed request generator.
	stream func(s int) func() request
	// serverArgs are the workload's `bncg serve` flags; storeDir is a
	// fresh directory for the run's journal.
	serverArgs func(storeDir string) []string
	// params records the generator parameters for the report.
	params map[string]any
}

// The three workloads. Each gives most of its work to one group of
// layers and little to the others (see README.md).
var workloadNames = []string{"check-hot", "check-distinct", "dynamics"}

func newWorkload(name string, seed int64, root string) (*workload, error) {
	switch name {
	case "check-hot":
		return checkHot(seed, root)
	case "check-distinct":
		return checkDistinct(seed), nil
	case "dynamics":
		return dynamicsWorkload(seed), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
}

// rounds returns a generator that sends deck in rounds, each a fresh
// permutation seeded by seed, path and the round number, so every run
// sends the same mix whatever its length.
func rounds(deck []request, seed int64, path ...int64) func() request {
	var order []int
	round := int64(0)
	return func() request {
		if len(order) == 0 {
			order = newRNG(seed, append(path[:len(path):len(path)], round)...).Perm(len(deck))
			round++
		}
		r := deck[order[0]]
		order = order[1:]
		return r
	}
}

// atlasEntry is the part of a testdata/atlas line a check needs.
type atlasEntry struct {
	Sparse6    string          `json:"sparse6"`
	Model      json.RawMessage `json:"model"`
	Objective  string          `json:"objective"`
	StableOnly bool            `json:"stable_only"`
	N          int             `json:"n"`
}

func readAtlas(path string) ([]atlasEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []atlasEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e atlasEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// Check-hot's generated keys are random trees with a few chords. A hit
// costs what the front half of /v1/check does: transport, sparse6 decode
// and encode, the LRU lookup and, above all, the certificate, whose
// colour refinement and individualisation grow with n: about 1.5 ms at
// n = 40, 6 ms at n = 80 and 15 ms at n = 112, while the rest of an
// in-process hit takes about 0.02 ms. The body trees, n 40–80, are three
// fifths of the requests and hold the median; their costs spread evenly,
// so the median moves smoothly with the host's speed instead of jumping
// between the two speeds of a single-cost class. The tail trees, n 112,
// are one request in 25 and hold the 99th percentile. A tree's
// certification finds an early witness, so the warm-up stays short.
const (
	hotBody       = 96
	hotBodyWeight = 5
	hotTail       = 16
	hotTailN      = 112
	hotTailWeight = 2
)

var hotBodyN = []int{40, 45, 50, 55, 60, 65, 70, 75, 80}

// checkHot: one connection replaying seeded rounds over a fixed hot set —
// every testdata/atlas entry under its stored spec plus the generated keys —
// that fits the server's 512-entry verdict LRU, so after the warm-up pass
// every timed request is an LRU hit. A round sends each atlas key once
// and each generated key its weight times, in a seeded order, so
// every seed sends the same mix.
func checkHot(seed int64, root string) (*workload, error) {
	entries, err := readAtlas(filepath.Join(root, "testdata", "atlas", "atlas.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("check-hot needs the atlas corpus: %w", err)
	}
	rng := newRNG(seed, 1)
	// The batched bit is part of the cache key: setting it on keys (not
	// on a share of each key's requests) keeps the hot set at one LRU
	// entry per key. Half the atlas keys draw it.
	atlasBatched := map[int]bool{}
	for _, i := range rng.Perm(len(entries))[:len(entries)/2] {
		atlasBatched[i] = true
	}
	var hot, deck []request // deck: one entry per request of a round
	add := func(class string, n, weight int, b checkBody) {
		r := request{path: pathCheck, body: mustJSON(b), class: class, n: n, batched: b.Batched}
		hot = append(hot, r)
		for k := 0; k < weight; k++ {
			deck = append(deck, r)
		}
	}
	for i, e := range entries {
		add("atlas", e.N, 1, checkBody{Graph: wireGraph{"sparse6", e.Sparse6}, Model: e.Model, Objective: e.Objective, StableOnly: e.StableOnly, Batched: atlasBatched[i]})
	}
	tree := func(class string, i, n, weight int, batched bool) {
		g := pruferTree(rng, n, n/32)
		add(class, n, weight, checkBody{Graph: wireGraph{"sparse6", sparse6(g)}, Model: modelJSON(rng, models[i%len(models)], n), Objective: objective(i / len(models)), Batched: batched, Workers: 1})
	}
	for i := 0; i < hotBody; i++ {
		tree("tree", i, hotBodyN[i%len(hotBodyN)], hotBodyWeight, i%2 == 0)
	}
	for i := 0; i < hotTail; i++ {
		tree("tailtree", i, hotTailN, hotTailWeight, false)
	}
	warm := make([]request, len(hot))
	for i, j := range rng.Perm(len(hot)) {
		warm[i] = hot[j]
	}
	return &workload{
		name:   "check-hot",
		conns:  1,
		hot:    hot,
		warmup: [][]request{warm},
		stream: func(s int) func() request { return rounds(deck, seed, 2, int64(s)) },
		serverArgs: func(dir string) []string {
			return []string{"-store", filepath.Join(dir, "journal.jsonl"), "-storeseed", filepath.Join(root, "testdata", "atlas")}
		},
		params: map[string]any{
			"connections": 1, "hot_keys": len(hot), "atlas_keys": len(entries), "round": len(deck),
			"body_trees": hotBody, "body_n": hotBodyN, "body_weight": hotBodyWeight,
			"tail_trees": hotTail, "tail_n": hotTailN, "tail_weight": hotTailWeight, "chords": "n/32",
			"batched": "half the atlas keys and half the body trees",
		},
	}, nil
}

// distinctSlot is one slot of check-distinct's round: a graph class, the
// check's model/objective/batched bit, and the class's size grid.
type distinctSlot struct {
	class   string
	model   string
	obj     string
	batched bool
	sizes   []int
}

var (
	nearStarSizes = []int{64, 96, 128, 160, 192}
	treeSizes     = []int{48, 80, 112, 144, 160}
	spiderSizes   = []int{1025, 1281, 1537, 1793, 2047}
)

// distinctRound is the composition every round of a check-distinct stream
// repeats, in a seeded order: near-star equilibria and near-equilibria
// that need full scans, certificate-heavy random trees with an early
// witness, and large spiders with a cheap certificate and an early
// witness whose batched checks build an n² row block.
var distinctRound = []distinctSlot{
	{"star", "swap", "sum", false, nearStarSizes},
	{"star", "swap", "sum", true, nearStarSizes},
	{"star", "greedy", "max", false, nearStarSizes},
	{"star", "interests", "max", true, nearStarSizes},
	{"star", "budget", "sum", false, nearStarSizes},
	{"star", "budget", "max", true, nearStarSizes},
	{"star", "2nb", "sum", false, nearStarSizes},
	{"star", "2nb", "max", true, nearStarSizes},
	{"doublestar", "swap", "max", false, nearStarSizes},
	{"doublestar", "greedy", "max", true, nearStarSizes},
	{"doublestar", "budget", "sum", false, nearStarSizes},
	{"doublestar", "interests", "sum", true, nearStarSizes},
	{"tree", "swap", "sum", false, treeSizes},
	{"tree", "greedy", "max", true, treeSizes},
	{"tree", "interests", "sum", false, treeSizes},
	{"tree", "budget", "max", true, treeSizes},
	{"spider", "swap", "sum", true, spiderSizes},
	{"spider", "greedy", "max", false, spiderSizes},
	{"spider", "2nb", "sum", false, spiderSizes},
	{"spider", "swap", "max", true, spiderSizes},
}

// distinctRequest builds request k of stream s: round k/len(round) is a
// seeded permutation of distinctRound, and each slot draws its size from
// the class grid in rotation, so every run sees the same mix.
func distinctRequest(seed int64, s, k int) request {
	round, pos := k/len(distinctRound), k%len(distinctRound)
	slot := distinctRound[newRNG(seed, 3, int64(s), int64(round)).Perm(len(distinctRound))[pos]]
	// Batched spider checks, whose n² row block sets the server's peak
	// memory, go on even streams only (two per round), at the largest
	// size: one block is live at a time, the server's per-size row-arena
	// pools hold one size, and every run reaches the same peak, so
	// server_peak_rss_mb follows the block's size rather than which sizes
	// and connections happened to coincide.
	batched := slot.batched && (slot.class != "spider" || s%2 == 0)
	n := slot.sizes[(round+pos)%len(slot.sizes)]
	if slot.class == "spider" && batched {
		n = spiderSizes[len(spiderSizes)-1]
	}
	rng := newRNG(seed, 4, int64(s), int64(k))
	var g simpleGraph
	switch slot.class {
	case "star":
		g = starChords(rng, n, n/32)
	case "doublestar":
		g = doubleStar(n, n/2-1-rng.Intn(3))
	case "tree":
		g = pruferTree(rng, n, n/32)
	case "spider":
		g = spider((n-1)/2, 2)
	}
	first := -1
	if slot.class == "spider" {
		// A leaf scanned first: its swap to the centre is the witness,
		// so the sweep stops after one agent.
		first = 2 + 2*rng.Intn((n-1)/2)
	}
	g = relabelFirst(rng, g, first)
	body := checkBody{
		Graph:     wireGraph{"sparse6", sparse6(g)},
		Model:     modelJSON(rng, slot.model, g.n),
		Objective: slot.obj,
		Batched:   batched,
		Workers:   1,
	}
	return request{path: pathCheck, body: mustJSON(body), class: slot.class, n: g.n, batched: batched}
}

// warmupRounds is how many rounds of its own stream each check-distinct
// connection sends during set-up.
const warmupRounds = 2

// checkDistinct: two connections with workers 1 on disjoint streams of
// labeled graphs the server has never seen, so every request misses,
// certifies and appends one journal line.
func checkDistinct(seed int64) *workload {
	const conns = 2
	warm := make([][]request, conns)
	for s := range warm {
		for k := 0; k < warmupRounds*len(distinctRound); k++ {
			warm[s] = append(warm[s], distinctRequest(seed, conns+s, k))
		}
	}
	return &workload{
		name:   "check-distinct",
		conns:  conns,
		warmup: warm,
		stream: func(s int) func() request {
			k := 0
			return func() request {
				r := distinctRequest(seed, s, k)
				k++
				return r
			}
		},
		serverArgs: func(dir string) []string {
			return []string{"-store", filepath.Join(dir, "journal.jsonl")}
		},
		params: map[string]any{
			"connections": conns, "workers": 1, "round": len(distinctRound),
			"near_star_n": nearStarSizes, "tree_n": treeSizes, "spider_n": spiderSizes,
			"batched_slots":         "10 of 20; batched spiders only on connection 0, at n 2047",
			"warmup_per_connection": warmupRounds * len(distinctRound),
		},
	}
}

// Dynamics pool: every (model, objective, policy) combination at each
// start size, dynamicsReplicas random trees with chords per combination.
// The pool is large so that its cost, which sets every end-to-end figure
// of the workload, varies little from seed to seed.
var (
	dynamicsSizes    = []int{32, 48, 64, 80, 96}
	dynamicsPolicies = []string{"best", "first", "random"}
)

const dynamicsReplicas = 5

// dynamicsWorkload: one connection with workers 2 replaying seeded
// rounds over a pool of distinct trajectories. No cache and no
// certificate are involved, so the session path does the work.
func dynamicsWorkload(seed int64) *workload {
	var pool []request
	for rep := 0; rep < dynamicsReplicas; rep++ {
		for _, n := range dynamicsSizes {
			for mi, m := range models {
				for oi := 0; oi < 2; oi++ {
					for pi, pol := range dynamicsPolicies {
						i := len(pool)
						rng := newRNG(seed, 5, int64(i))
						g := pruferTree(rng, n, n/16)
						body := dynamicsBody{
							Graph:     wireGraph{"sparse6", sparse6(g)},
							Model:     modelJSON(rng, m, n),
							Objective: objective(oi),
							Policy:    pol,
							Seed:      rng.Int63n(1 << 30),
							MaxMoves:  2 * n,
							Batched:   (rep+mi+oi+pi)%2 == 0,
							Workers:   2,
							Certify:   i%4 == 0,
						}
						pool = append(pool, request{path: pathDynamics, body: mustJSON(body), class: m, n: n, batched: body.Batched})
					}
				}
			}
		}
	}
	// The warm-up sends the first replica's two smallest sizes.
	warm := pool[:2*len(models)*2*len(dynamicsPolicies)]
	return &workload{
		name:       "dynamics",
		conns:      1,
		hot:        pool,
		warmup:     [][]request{warm},
		stream:     func(s int) func() request { return rounds(pool, seed, 6, int64(s)) },
		serverArgs: func(string) []string { return nil },
		params: map[string]any{
			"connections": 1, "workers": 2, "pool": len(pool), "start_n": dynamicsSizes,
			"policies": dynamicsPolicies, "max_moves": "2n", "certify_share": 0.25, "batched_share": 0.5,
		},
	}
}
