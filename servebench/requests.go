package main

import (
	"encoding/json"
	"math/rand"
)

// The request shapes below mirror the service's wire format field for
// field. They are the benchmark's own, so the bytes it sends do not
// depend on the Go types of the commit under test.

type wireGraph struct {
	Format string `json:"format"`
	Data   string `json:"data"`
}

type wireModel struct {
	Name      string    `json:"name,omitempty"`
	EdgeCost  int64     `json:"edge_cost,omitempty"`
	Budget    int       `json:"budget,omitempty"`
	Interests [][]int32 `json:"interests,omitempty"`
}

type checkBody struct {
	Graph      wireGraph       `json:"graph"`
	Model      json.RawMessage `json:"model,omitempty"`
	Objective  string          `json:"objective,omitempty"`
	StableOnly bool            `json:"stable_only,omitempty"`
	Batched    bool            `json:"batched,omitempty"`
	Workers    int             `json:"workers,omitempty"`
}

type dynamicsBody struct {
	Graph     wireGraph       `json:"graph"`
	Model     json.RawMessage `json:"model,omitempty"`
	Objective string          `json:"objective,omitempty"`
	Policy    string          `json:"policy,omitempty"`
	Seed      int64           `json:"seed,omitempty"`
	MaxMoves  int             `json:"max_moves,omitempty"`
	Batched   bool            `json:"batched,omitempty"`
	Workers   int             `json:"workers,omitempty"`
	Certify   bool            `json:"certify,omitempty"`
}

const (
	pathCheck    = "/v1/check"
	pathDynamics = "/v1/dynamics"
)

// request is one prepared HTTP request of a workload.
type request struct {
	path    string
	body    []byte
	class   string // generator class, for reports
	n       int
	batched bool
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own plain structs always marshal
	}
	return b
}

var models = []string{"swap", "greedy", "interests", "budget", "2nb"}

// modelJSON draws the model's parameters for a graph on n vertices.
func modelJSON(rng *rand.Rand, name string, n int) json.RawMessage {
	m := wireModel{}
	switch name {
	case "greedy":
		m.Name = name
		m.EdgeCost = []int64{1, 2, 4}[rng.Intn(3)]
	case "budget":
		m.Name = name
		m.Budget = 3 + rng.Intn(2)
	case "interests":
		m.Name = name
		m.Interests = interestSets(rng, n, 4)
	case "2nb":
		m.Name = name
	}
	return mustJSON(m)
}

func objective(i int) string {
	if i%2 == 0 {
		return "sum"
	}
	return "max"
}

// newRNG derives an independent generator from the run seed and a path
// of small integers, so any request can be built without the others.
func newRNG(seed int64, path ...int64) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, p := range path {
		h ^= uint64(p) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}
