// Package game is the deviation-model layer of the repository: it
// abstracts *which single move an agent may play* away from the engines
// that price, schedule, and certify moves. The basic network creation game
// of the source paper has exactly one deviation rule — the single-edge
// swap, priced under SUM or MAX usage cost — and that rule used to be
// hard-wired through internal/core, internal/dynamics, internal/nash, and
// the CLI. Related work studies the same machinery under richer deviation
// sets: greedy add/delete/swap dynamics (Kawald & Lenzner, "On Dynamics in
// Selfish Network Creation") and per-vertex communication interests
// (Cord-Landwehr et al., "Basic Network Creation Games with Communication
// Interests"). A Model packages one such rule; every engine above this
// package is generic in the Model.
//
// A Model is a factory for Instances. An Instance binds the rule to a
// concrete position: it owns candidate-move enumeration and incremental
// pricing over a pricing.Session (enumerate a deviator's moves, price a
// move from patched BFS rows, apply/undo it on the live snapshot). Each
// model ships two instance flavors:
//
//   - New: the fast path — one incremental pricing session per trajectory,
//     O(deg) adjacency patches per applied move, engine-sharded scans; and
//   - Naive: the differential-test oracle — re-freeze or apply-measure-
//     revert pricing on the mutable graph, no shared state.
//
// Both flavors implement Instance, enumerate candidates in the same
// deterministic order, and consume randomness identically, so a dynamics
// trajectory driven through a fast instance must reproduce the naive
// instance move-for-move; internal/dynamics pins that for every model.
//
// The five shipped models are Swap (the paper's game — bit-identical to
// the pre-refactor swap-only stack), Greedy, Interests, Budget (bounded
// per-vertex edge budgets, Ehsani et al.), and TwoNeighborhood
// (2-neighborhood maximization, de la Haye et al.). Further variants plug
// in here.
package game

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pricing"
)

// Objective selects which usage cost the agents minimize.
type Objective int

const (
	// Sum is the local-average-distance version: cost(v) = Σ_u d(v,u).
	Sum Objective = iota
	// Max is the local-diameter version: cost(v) = max_u d(v,u).
	Max
)

// String returns "sum" or "max".
func (o Objective) String() string {
	switch o {
	case Sum:
		return "sum"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// pobj maps the package's objective onto the pricing engine's.
func pobj(obj Objective) pricing.Objective {
	if obj == Max {
		return pricing.Max
	}
	return pricing.Sum
}

// InfCost is the usage cost of a disconnected position. Any move that
// disconnects the agent from a vertex it cares about prices to InfCost and
// is therefore never improving.
const InfCost = int64(1) << 60

// ErrDisconnected is returned by checkers that require connected input.
var ErrDisconnected = errors.New("game: graph must be connected")

// Kind labels a move's edge operation. The zero value is KindSwap, so the
// basic game's Move{V, Drop, Add} literals keep meaning a swap.
type Kind int8

const (
	// KindSwap replaces edge V–Drop by V–Add (the basic game's only move).
	KindSwap Kind = iota
	// KindAdd inserts edge V–Add (greedy model).
	KindAdd
	// KindDelete removes edge V–Drop (greedy model).
	KindDelete
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSwap:
		return "swap"
	case KindAdd:
		return "add"
	case KindDelete:
		return "delete"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Move is a single-edge move performed by agent V. For KindSwap the edge
// V–Drop is replaced by V–Add (Add == Drop encodes a no-op, Add an
// existing neighbor a net deletion); KindAdd uses only Add, KindDelete
// only Drop.
type Move struct {
	V    int  // the moving agent
	Drop int  // current neighbor losing its edge to V (swap, delete)
	Add  int  // new endpoint of V's edge (swap, add)
	Kind Kind // edge operation; zero value is KindSwap
}

// String formats swaps as "v: drop→add" (the historical rendering), adds
// as "v: +add", deletions as "v: -drop".
func (m Move) String() string {
	switch m.Kind {
	case KindAdd:
		return fmt.Sprintf("%d: +%d", m.V, m.Add)
	case KindDelete:
		return fmt.Sprintf("%d: -%d", m.V, m.Drop)
	default:
		return fmt.Sprintf("%d: %d→%d", m.V, m.Drop, m.Add)
	}
}

// ViolationKind classifies why a graph fails an equilibrium or stability
// predicate.
type ViolationKind int

const (
	// SwapImproves: the recorded Move strictly decreases the agent's cost
	// (despite the name, the move may be any kind under non-swap models).
	SwapImproves ViolationKind = iota
	// DeletionSafe: deleting the recorded edge does not strictly increase
	// the endpoint's local diameter (violates the max-equilibrium and
	// deletion-critical conditions).
	DeletionSafe
	// InsertionHelps: inserting the recorded edge strictly decreases the
	// endpoint's local diameter (violates insertion stability).
	InsertionHelps
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case SwapImproves:
		return "swap-improves"
	case DeletionSafe:
		return "deletion-safe"
	case InsertionHelps:
		return "insertion-helps"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation is a witness that a predicate fails: either an improving move
// (SwapImproves, see Move) or an offending edge with the affected agent.
type Violation struct {
	Kind    ViolationKind
	Move    Move       // valid when Kind == SwapImproves
	Edge    graph.Edge // valid for DeletionSafe / InsertionHelps
	Agent   int        // the agent whose cost witnesses the violation
	OldCost int64      // agent's cost before the change
	NewCost int64      // agent's cost after the change
}

// String renders the witness with costs.
func (v *Violation) String() string {
	switch v.Kind {
	case SwapImproves:
		return fmt.Sprintf("move %v improves cost %d→%d", v.Move, v.OldCost, v.NewCost)
	case DeletionSafe:
		return fmt.Sprintf("deleting %v leaves agent %d cost %d→%d (no increase)",
			v.Edge, v.Agent, v.OldCost, v.NewCost)
	case InsertionHelps:
		return fmt.Sprintf("inserting %v improves agent %d cost %d→%d",
			v.Edge, v.Agent, v.OldCost, v.NewCost)
	default:
		return "unknown violation"
	}
}

// Model is one deviation rule of a network creation game: it knows which
// single moves an agent may play and how to price them. Models are small
// immutable values (safe to copy); all position state lives in Instances.
type Model interface {
	// Name returns the CLI-facing model name ("swap", "greedy", ...).
	Name() string
	// New binds the model to g with an incremental pricing session:
	// applied moves patch the live CSR snapshot in O(deg), scans shard
	// across the given workers (<= 0 means all cores). g stays the
	// authoritative graph; route every move through Instance.Apply.
	New(g *graph.Graph, workers int) Instance
	// Naive binds the model to g with oracle pricing: every probe pays a
	// re-freeze or an apply-measure-revert on the mutable graph. Trajectories
	// driven through a Naive instance are the differential-test reference
	// for the fast instance.
	Naive(g *graph.Graph, workers int) Instance
}

// Instance is a model bound to a live position. It is single-writer:
// Apply/undo must not race with pricing calls; the pricing calls
// themselves may shard internally across the instance's workers.
type Instance interface {
	// Graph returns the authoritative mutable graph. Mutating it directly
	// desynchronizes fast instances; route moves through Apply.
	Graph() *graph.Graph
	// Cost returns agent v's cost under the model (InfCost when v is
	// disconnected from a vertex it cares about).
	Cost(v int, obj Objective) int64
	// SocialCost returns the sum of all agents' costs, InfCost-saturated.
	SocialCost(obj Objective) int64
	// BestMove returns v's cost-minimizing move with a deterministic
	// tie-break, v's current cost, and whether the move strictly improves.
	BestMove(v int, obj Objective) (m Move, oldCost, newCost int64, ok bool)
	// FirstImproving returns v's first strictly improving move in the
	// model's deterministic enumeration order.
	FirstImproving(v int, obj Objective) (m Move, oldCost, newCost int64, ok bool)
	// PriceMove prices a single candidate move without mutating anything.
	PriceMove(m Move, obj Objective) int64
	// Sample draws a random candidate move. It must consume rng
	// identically across the fast and naive instances of a model, and may
	// report ok=false (a wasted probe) when the draw is infeasible.
	Sample(rng *rand.Rand) (Move, bool)
	// Apply performs m on the position (graph and live snapshot),
	// returning a function that undoes it (LIFO order). Infeasible moves
	// panic.
	Apply(m Move) (undo func())
	// FindImprovement scans agents in ascending order for the first
	// improving move — the certification sweep. ok is false exactly when
	// the position is an equilibrium of the model under obj.
	FindImprovement(obj Objective) (m Move, oldCost, newCost int64, ok bool)
	// CheckStable reports whether no single move strictly improves any
	// agent, with a witness violation on failure.
	CheckStable(obj Objective) (bool, *Violation, error)
}

// normWorkers resolves a worker-count option.
func normWorkers(workers int) int {
	if workers <= 0 {
		return par.DefaultWorkers
	}
	return workers
}

// Cost returns agent v's usage cost on the mutable graph: the distance
// sum (Sum) or eccentricity (Max), InfCost when disconnected. It is the
// oracle-side counterpart of the session pricers.
func Cost(g *graph.Graph, v int, obj Objective) int64 {
	if obj == Sum {
		sum, reached := g.SumOfDistances(v)
		if reached != g.N() {
			return InfCost
		}
		return sum
	}
	ecc, ok := g.Eccentricity(v)
	if !ok {
		return InfCost
	}
	return int64(ecc)
}

// SocialCost returns the sum over all agents of their usage cost, or
// InfCost when g is disconnected.
func SocialCost(g *graph.Graph, obj Objective) int64 {
	var total int64
	for v := 0; v < g.N(); v++ {
		c := Cost(g, v, obj)
		if c >= InfCost {
			return InfCost
		}
		total += c
	}
	return total
}

// Evaluate prices a single move of any kind by applying it to g, measuring
// the agent's usage cost, and reverting — the slow-but-simple reference
// the patch-based pricers are validated against. Degenerate moves (swap
// no-ops, swaps onto existing edges, deletes of absent edges) follow the
// game semantics of Apply-side handling: only the edges actually changed
// are rolled back.
func Evaluate(g *graph.Graph, m Move, obj Objective) int64 {
	undo := applyLoose(g, m)
	cost := Cost(g, m.V, obj)
	undo()
	return cost
}

// applyLoose applies m to g tolerating degenerate moves, returning the
// exact rollback.
func applyLoose(g *graph.Graph, m Move) (undo func()) {
	var removed, added bool
	switch m.Kind {
	case KindAdd:
		added = g.AddEdge(m.V, m.Add)
	case KindDelete:
		removed = g.RemoveEdge(m.V, m.Drop)
	default:
		removed = g.RemoveEdge(m.V, m.Drop)
		added = g.AddEdge(m.V, m.Add)
	}
	return func() {
		if added {
			g.RemoveEdge(m.V, m.Add)
		}
		if removed {
			g.AddEdge(m.V, m.Drop)
		}
	}
}

// ApplyToGraph applies m to the mutable graph, panicking on infeasible
// moves (swap/delete of an absent edge), and returns the undo. It is the
// graph half of every fast instance's Apply and the whole of the naive
// instances'.
func ApplyToGraph(g *graph.Graph, m Move) (undo func()) {
	switch m.Kind {
	case KindAdd:
		added := g.AddEdge(m.V, m.Add)
		return func() {
			if added {
				g.RemoveEdge(m.V, m.Add)
			}
		}
	case KindDelete:
		if !g.RemoveEdge(m.V, m.Drop) {
			panic("game: ApplyToGraph delete edge missing")
		}
		return func() { g.AddEdge(m.V, m.Drop) }
	default:
		if !g.HasEdge(m.V, m.Drop) {
			panic("game: ApplyToGraph drop edge missing")
		}
		g.RemoveEdge(m.V, m.Drop)
		added := g.AddEdge(m.V, m.Add)
		return func() {
			if added {
				g.RemoveEdge(m.V, m.Add)
			}
			g.AddEdge(m.V, m.Drop)
		}
	}
}

// findImprovement is every instance's FindImprovement: the sweep over
// its FirstImproving, skipping twins when the instance declares them.
func findImprovement(inst Instance, obj Objective) (Move, int64, int64, bool) {
	viol, _ := instanceSweep(nil, inst, obj)
	return viol.asMove()
}

// sweepStable is the shared equilibrium check for models without extra
// side conditions: stable iff the certification sweep finds nothing.
func sweepStable(inst Instance, obj Objective) (bool, *Violation, error) {
	viol, _ := instanceSweep(nil, inst, obj)
	return viol == nil, viol, nil
}

// RoundRobin drives round-robin best-response sweeps over n agents: step
// is invoked per agent and reports whether it applied a move; the loop
// ends when a full sweep applies no move (converged) or after maxMoves
// applied moves. It is the shared convergence loop of the sweeping
// dynamics policies (internal/dynamics) and the greedy α-game
// (internal/nash).
func RoundRobin(n, maxMoves int, step func(v int) (moved bool)) (moves, sweeps int, converged bool) {
	for moves < maxMoves {
		sweeps++
		movedThisSweep := false
		for v := 0; v < n && moves < maxMoves; v++ {
			if step(v) {
				moves++
				movedThisSweep = true
			}
		}
		if !movedThisSweep {
			return moves, sweeps, true
		}
	}
	return moves, sweeps, false
}
