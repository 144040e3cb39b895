// Package serve is the long-lived equilibrium service: an HTTP+JSON
// server owning a bounded pool of resident request slots, the shared
// pricing-engine registry (pricing.Shared — pooled BFS scratch reused
// across requests), and an LRU of certified verdicts keyed by the exact
// labeled graph and check spec, serving concurrent check / best-response /
// dynamics requests for every deviation model.
//
// The request and response DTOs in this file are the single wire shape of
// the system: the HTTP handlers decode them, the CLI's check / dynamics
// subcommands construct them and call the same Server methods in process
// (thin clients of the same code path), and the load generator replays
// them against a live server while comparing every verdict bit-for-bit
// with the direct one-shot path.
package serve

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/graphio"
)

// Graph wire formats accepted by GraphDTO.Format.
const (
	FormatEdgeList = "edgelist"
	FormatGraph6   = "graph6"
	FormatSparse6  = "sparse6"
)

// GraphDTO carries a graph in one of the graphio wire formats.
type GraphDTO struct {
	// Format is "edgelist", "graph6", or "sparse6" (default "edgelist").
	Format string `json:"format,omitempty"`
	// Data is the serialized graph in the chosen format.
	Data string `json:"data"`
}

// Decode parses the carried graph.
func (d GraphDTO) Decode() (*graph.Graph, error) {
	switch d.Format {
	case FormatEdgeList, "":
		return graphio.ReadEdgeList(strings.NewReader(d.Data))
	case FormatGraph6:
		return graphio.FromGraph6(strings.TrimSpace(d.Data))
	case FormatSparse6:
		return graphio.FromSparse6(strings.TrimSpace(d.Data))
	default:
		return nil, fmt.Errorf("unknown graph format %q", d.Format)
	}
}

// EncodeGraph renders g as a GraphDTO in the given format ("" means
// sparse6, the most compact for this library's sparse graphs).
func EncodeGraph(g *graph.Graph, format string) (GraphDTO, error) {
	switch format {
	case FormatSparse6, "":
		s, err := graphio.ToSparse6(g)
		return GraphDTO{Format: FormatSparse6, Data: s}, err
	case FormatGraph6:
		s, err := graphio.ToGraph6(g)
		return GraphDTO{Format: FormatGraph6, Data: s}, err
	case FormatEdgeList:
		var sb strings.Builder
		err := graphio.WriteEdgeList(&sb, g)
		return GraphDTO{Format: FormatEdgeList, Data: sb.String()}, err
	default:
		return GraphDTO{}, fmt.Errorf("unknown graph format %q", format)
	}
}

// ModelDTO selects the deviation model of a request. The zero value is the
// basic swap game.
type ModelDTO struct {
	// Name is "swap" (default), "greedy", "interests", "budget", or "2nb".
	Name string `json:"name,omitempty"`
	// EdgeCost is the greedy model's per-incident-edge maintenance price
	// (0 means game.DefaultEdgeCost).
	EdgeCost int64 `json:"edge_cost,omitempty"`
	// Budget is the budget model's uniform per-vertex edge budget k
	// (0 means game.DefaultBudget).
	Budget int `json:"budget,omitempty"`
	// Interests carries the interests model's per-vertex interest sets;
	// len(Interests) must equal the graph's n.
	Interests [][]int32 `json:"interests,omitempty"`
}

// Build resolves the DTO into a game.Model for a graph on n vertices.
func (d ModelDTO) Build(n int) (game.Model, error) {
	switch d.Name {
	case "", "swap":
		return game.Swap{}, nil
	case "greedy":
		ec := d.EdgeCost
		if ec == 0 {
			ec = game.DefaultEdgeCost
		}
		if ec < 0 {
			return nil, fmt.Errorf("greedy model needs edge_cost >= 0, got %d", ec)
		}
		return game.Greedy{EdgeCost: ec}, nil
	case "budget":
		k := d.Budget
		if k == 0 {
			k = game.DefaultBudget
		}
		if k < 1 {
			return nil, fmt.Errorf("budget model needs budget >= 1, got %d", k)
		}
		return game.Budget{K: k}, nil
	case "2nb", "twonb":
		return game.TwoNeighborhood{}, nil
	case "interests":
		if len(d.Interests) == 0 {
			return nil, fmt.Errorf("interests model needs explicit interest sets")
		}
		if len(d.Interests) != n {
			return nil, fmt.Errorf("interests declare %d vertices, graph has n=%d", len(d.Interests), n)
		}
		for v, set := range d.Interests {
			for _, u := range set {
				if int(u) < 0 || int(u) >= n {
					return nil, fmt.Errorf("interest set of %d names vertex %d outside [0,%d)", v, u, n)
				}
			}
		}
		return game.NewInterests(d.Interests), nil
	default:
		return nil, fmt.Errorf("unknown model %q", d.Name)
	}
}

// cacheKey fingerprints the model configuration for the verdict cache.
// Interest sets are folded in verbatim: two requests with different sets
// are different checks.
func (d ModelDTO) cacheKey() string {
	name := d.Name
	if name == "" {
		name = "swap"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|ec=%d|k=%d", name, d.EdgeCost, d.Budget)
	for _, set := range d.Interests {
		sb.WriteByte(';')
		for _, u := range set {
			fmt.Fprintf(&sb, "%d,", u)
		}
	}
	return sb.String()
}

// parseObjective maps the wire objective onto core's.
func parseObjective(s string) (core.Objective, error) {
	switch s {
	case "", "sum":
		return core.Sum, nil
	case "max":
		return core.Max, nil
	default:
		return 0, fmt.Errorf("unknown objective %q", s)
	}
}

// objectiveName renders the wire objective (normalizing the default).
func objectiveName(s string) string {
	if s == "" {
		return "sum"
	}
	return s
}

// CheckRequest asks whether a graph is stable under a model and objective.
type CheckRequest struct {
	Graph GraphDTO `json:"graph"`
	Model ModelDTO `json:"model,omitempty"`
	// Objective is "sum" (default) or "max".
	Objective string `json:"objective,omitempty"`
	// StableOnly skips the max version's deletion-criticality side
	// condition (see core.CheckSpec.StableOnly).
	StableOnly bool `json:"stable_only,omitempty"`
	// Batched routes the check through the batched cross-agent sweep
	// where the model has one (bit-identical verdicts).
	Batched bool `json:"batched,omitempty"`
	// Workers bounds the request's pricing parallelism (0 = server
	// default, capped by the server's MaxWorkers).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the request's wall-clock time; expiry cancels the
	// scan between per-agent units (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MoveDTO is a single-edge move on the wire.
type MoveDTO struct {
	V    int    `json:"v"`
	Drop int    `json:"drop,omitempty"`
	Add  int    `json:"add,omitempty"`
	Kind string `json:"kind,omitempty"` // "swap" (default), "add", "delete"
}

// moveToDTO converts a game move to the wire shape.
func moveToDTO(m game.Move) MoveDTO {
	d := MoveDTO{V: m.V, Drop: m.Drop, Add: m.Add}
	if m.Kind != game.KindSwap {
		d.Kind = m.Kind.String()
	}
	return d
}

// Move converts the wire shape back to a game move (the CLI uses it to
// render moves with the library's String formats).
func (d MoveDTO) Move() game.Move {
	m := game.Move{V: d.V, Drop: d.Drop, Add: d.Add}
	switch d.Kind {
	case "add":
		m.Kind = game.KindAdd
	case "delete":
		m.Kind = game.KindDelete
	}
	return m
}

// ViolationDTO is a witness violation on the wire.
type ViolationDTO struct {
	// Kind is "swap-improves", "deletion-safe", or "insertion-helps".
	Kind string `json:"kind"`
	// Move is the improving move (swap-improves only).
	Move *MoveDTO `json:"move,omitempty"`
	// Edge is the offending edge (deletion-safe / insertion-helps).
	Edge *[2]int `json:"edge,omitempty"`
	// Agent is the agent whose cost witnesses the violation.
	Agent int `json:"agent"`
	// OldCost and NewCost are the agent's costs before / after the change.
	OldCost int64 `json:"old_cost"`
	NewCost int64 `json:"new_cost"`
}

// violationToDTO converts a witness to the wire shape (nil-safe).
func violationToDTO(v *core.Violation) *ViolationDTO {
	if v == nil {
		return nil
	}
	d := &ViolationDTO{
		Kind:    v.Kind.String(),
		Agent:   v.Agent,
		OldCost: v.OldCost,
		NewCost: v.NewCost,
	}
	if v.Kind == core.SwapImproves {
		m := moveToDTO(v.Move)
		d.Move = &m
	} else {
		d.Edge = &[2]int{v.Edge.U, v.Edge.V}
	}
	return d
}

// Violation converts the wire shape back to a core witness (nil-safe).
func (d *ViolationDTO) Violation() *core.Violation {
	if d == nil {
		return nil
	}
	v := &core.Violation{Agent: d.Agent, OldCost: d.OldCost, NewCost: d.NewCost}
	switch d.Kind {
	case "deletion-safe":
		v.Kind = core.DeletionSafe
	case "insertion-helps":
		v.Kind = core.InsertionHelps
	default:
		v.Kind = core.SwapImproves
	}
	if d.Move != nil {
		v.Move = d.Move.Move()
	}
	if d.Edge != nil {
		v.Edge = graph.NewEdge(d.Edge[0], d.Edge[1])
	}
	return v
}

// VerdictDTO is a check outcome on the wire.
type VerdictDTO struct {
	Stable    bool          `json:"stable"`
	Violation *ViolationDTO `json:"violation,omitempty"`
	// Batched reports whether the batched cross-agent pass actually ran.
	Batched bool `json:"batched,omitempty"`
}

// verdictToDTO converts a core verdict to the wire shape.
func verdictToDTO(v core.Verdict) VerdictDTO {
	return VerdictDTO{Stable: v.Stable, Violation: violationToDTO(v.Violation), Batched: v.Batched}
}

// CheckResponse answers a CheckRequest.
type CheckResponse struct {
	N int `json:"n"`
	M int `json:"m"`
	VerdictDTO
	// Cached reports that the verdict was served without a fresh
	// certification (from the LRU, or from the persistent store).
	Cached bool `json:"cached,omitempty"`
	// Stored reports that the verdict came from the persistent store's
	// index rather than the in-memory LRU (Cached is also set).
	Stored bool `json:"stored,omitempty"`
	// Coalesced reports that this request shared a concurrent identical
	// request's certification instead of running its own (it was a
	// follower of a coalesced flight).
	Coalesced bool `json:"coalesced,omitempty"`
}

// BestResponseRequest asks for one agent's cost-minimizing move.
type BestResponseRequest struct {
	Graph GraphDTO `json:"graph"`
	Model ModelDTO `json:"model,omitempty"`
	// Agent is the moving vertex.
	Agent int `json:"agent"`
	// Objective is "sum" (default) or "max".
	Objective string `json:"objective,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// BestResponseResponse answers a BestResponseRequest.
type BestResponseResponse struct {
	// Move is the cost-minimizing move; nil when no move strictly
	// improves.
	Move *MoveDTO `json:"move,omitempty"`
	// OldCost is the agent's current cost, NewCost the move's.
	OldCost int64 `json:"old_cost"`
	NewCost int64 `json:"new_cost"`
	// Improves reports whether the move strictly improves.
	Improves bool `json:"improves"`
}

// DynamicsRequest runs move dynamics from a supplied start graph.
type DynamicsRequest struct {
	Graph GraphDTO `json:"graph"`
	Model ModelDTO `json:"model,omitempty"`
	// Objective is "sum" (default) or "max".
	Objective string `json:"objective,omitempty"`
	// Policy is "best" (default), "first", or "random".
	Policy string `json:"policy,omitempty"`
	// Seed drives the random policy.
	Seed int64 `json:"seed,omitempty"`
	// MaxMoves caps applied moves (0 = engine default, capped by the
	// server's MaxMoves).
	MaxMoves int `json:"max_moves,omitempty"`
	// Batched routes certification sweeps through the batched pass where
	// the model has one; the response reports fallback explicitly.
	Batched bool `json:"batched,omitempty"`
	Workers int  `json:"workers,omitempty"`
	// Trace returns every applied move.
	Trace bool `json:"trace,omitempty"`
	// Certify re-checks the final graph with a fresh one-shot instance
	// and returns the verdict.
	Certify   bool  `json:"certify,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// parsePolicy maps the wire policy onto dynamics'.
func parsePolicy(s string) (dynamics.Policy, error) {
	switch s {
	case "", "best":
		return dynamics.BestResponse, nil
	case "first":
		return dynamics.FirstImprovement, nil
	case "random":
		return dynamics.RandomImproving, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

// TraceEntryDTO is one applied move of a dynamics trajectory.
type TraceEntryDTO struct {
	Move       MoveDTO `json:"move"`
	OldCost    int64   `json:"old_cost"`
	NewCost    int64   `json:"new_cost"`
	SocialCost int64   `json:"social_cost"`
	MoveRank   int     `json:"move_rank"`
}

// DynamicsResponse answers a DynamicsRequest.
type DynamicsResponse struct {
	Converged bool `json:"converged"`
	Moves     int  `json:"moves"`
	Sweeps    int  `json:"sweeps"`
	// Batched is "off", "active", or "fallback" — the explicit report of
	// how a batched-sweeps request was honored.
	Batched string `json:"batched"`
	// RowsRecomputed / RowsInvalidated are the session row cache's
	// lifetime counters over the run (0 when the trajectory never
	// attached a cache): BFS row rebuilds paid at syncs, and rows flagged
	// by applied moves' invalidation tests. Their ratio to Moves is the
	// cache-effectiveness signal — near equilibrium both stay O(1) per
	// applied move.
	RowsRecomputed  uint64 `json:"rows_recomputed,omitempty"`
	RowsInvalidated uint64 `json:"rows_invalidated,omitempty"`
	// Final is the end-of-run graph (sparse6).
	Final GraphDTO `json:"final"`
	// Certified carries the fresh one-shot verdict when Certify was set.
	Certified *VerdictDTO     `json:"certified,omitempty"`
	Trace     []TraceEntryDTO `json:"trace,omitempty"`
}
