package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/constructions"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/graph"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, NewClient(hs.URL)
}

func mustDTO(t *testing.T, g *graph.Graph) GraphDTO {
	t.Helper()
	d, err := EncodeGraph(g, FormatSparse6)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return d
}

// TestCheckAllModels runs /v1/check for every deviation model over HTTP
// and verifies each verdict bit-for-bit against the direct core.Check.
func TestCheckAllModels(t *testing.T) {
	_, client := newTestServer(t, Config{})
	g := constructions.Path(8)
	dto := mustDTO(t, g)
	models := []ModelDTO{
		{},
		{Name: "greedy"},
		{Name: "interests", Interests: ringInterests(8)},
		{Name: "budget", Budget: 2},
		{Name: "2nb"},
	}
	for _, m := range models {
		name := m.Name
		if name == "" {
			name = "swap"
		}
		t.Run(name, func(t *testing.T) {
			req := CheckRequest{Graph: dto, Model: m, Objective: "sum"}
			got, err := client.Check(context.Background(), req)
			if err != nil {
				t.Fatalf("HTTP check: %v", err)
			}
			model, err := m.Build(8)
			if err != nil {
				t.Fatalf("build model: %v", err)
			}
			verdict, err := core.Check(g.Clone(), core.CheckSpec{Model: model, Objective: core.Sum})
			if err != nil {
				t.Fatalf("direct check: %v", err)
			}
			want := verdictToDTO(verdict)
			if !reflect.DeepEqual(got.VerdictDTO, want) {
				t.Errorf("HTTP verdict %+v, direct %+v", got.VerdictDTO, want)
			}
			if got.N != 8 || got.M != 7 {
				t.Errorf("got n=%d m=%d, want 8/7", got.N, got.M)
			}
		})
	}
}

// TestMalformedPayloads checks the error taxonomy of every decode failure.
func TestMalformedPayloads(t *testing.T) {
	srv, client := newTestServer(t, Config{MaxN: 16})
	_ = srv
	post := func(t *testing.T, path, body string) int {
		t.Helper()
		resp, err := http.Post(client.BaseURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("non-JSON error body: %v", err)
		}
		if resp.StatusCode != http.StatusOK && eb.Error == "" {
			t.Errorf("%s: status %d with empty error message", path, resp.StatusCode)
		}
		return resp.StatusCode
	}
	pathDTO := mustDTO(t, constructions.Path(6))
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"not JSON", "/v1/check", "{", http.StatusBadRequest},
		{"unknown field", "/v1/check", `{"graf": {}}`, http.StatusBadRequest},
		{"bad graph data", "/v1/check", `{"graph": {"format": "sparse6", "data": "!!"}}`, http.StatusBadRequest},
		{"bad graph format", "/v1/check", `{"graph": {"format": "dot", "data": ""}}`, http.StatusBadRequest},
		{"unknown model", "/v1/check", `{"graph": {"format": "sparse6", "data": ` + quote(pathDTO.Data) + `}, "model": {"name": "pony"}}`, http.StatusBadRequest},
		{"interests without sets", "/v1/check", `{"graph": {"format": "sparse6", "data": ` + quote(pathDTO.Data) + `}, "model": {"name": "interests"}}`, http.StatusBadRequest},
		{"bad objective", "/v1/check", `{"graph": {"format": "sparse6", "data": ` + quote(pathDTO.Data) + `}, "objective": "median"}`, http.StatusBadRequest},
		{"bad policy", "/v1/dynamics", `{"graph": {"format": "sparse6", "data": ` + quote(pathDTO.Data) + `}, "policy": "chaotic"}`, http.StatusBadRequest},
		{"agent out of range", "/v1/bestresponse", `{"graph": {"format": "sparse6", "data": ` + quote(pathDTO.Data) + `}, "agent": 11}`, http.StatusBadRequest},
		{"disconnected graph", "/v1/check", `{"graph": {"format": "edgelist", "data": "4 1\n0 1\n"}}`, http.StatusUnprocessableEntity},
		{"oversized graph", "/v1/check", `{"graph": {"format": "edgelist", "data": "40 1\n0 1\n"}}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := post(t, tc.path, tc.body); got != tc.want {
				t.Errorf("status %d, want %d", got, tc.want)
			}
		})
	}
}

func quote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestTimeoutCancelsMidScan submits a check big enough that a 1ms deadline
// expires between per-agent scan units, and expects 504. The graph is the
// k = 16 diagonal torus (n = 512) under max — a max equilibrium, so the
// scan cannot exit early on a violation, and twin-free with every
// eccentricity 16, so neither exact pruning rule can shortcut it: it must
// be cut short by the deadline poll.
func TestTimeoutCancelsMidScan(t *testing.T) {
	_, client := newTestServer(t, Config{MaxN: 1024})
	g := constructions.NewTorus(16).Graph()
	requireUnprunable(t, g)
	req := CheckRequest{
		Graph:     mustDTO(t, g),
		Objective: "max",
		TimeoutMS: 1,
	}
	start := time.Now()
	_, err := client.Check(context.Background(), req)
	elapsed := time.Since(start)
	var ae *apiError
	if err == nil {
		t.Fatalf("check of n=512 with 1ms deadline succeeded in %v; expected 504", elapsed)
	}
	if !asAPIError(err, &ae) || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("got %v, want 504", err)
	}
	// A full n=512 swap check costs hundreds of thousands of BFS.
	// Cancellation between per-agent units must abort far sooner.
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; deadline is not being polled mid-scan", elapsed)
	}
}

// TestTimeoutCancelsMidBatchedScan is TestTimeoutCancelsMidScan's batched
// twin: with Batched set, the check builds each shared full-graph row on
// the first candidate that reads it, inside the per-agent scans, so a 1ms
// deadline expires mid-scan. Each scan polls the context once per
// candidate endpoint through its cancel hook (each candidate is at most
// one shared row plus one bounded BFS), so the 504 must come back within
// a candidate of the deadline — not after the remaining hundreds of
// candidates and rows. The k = 22 torus (n = 968) under max is stable,
// twin-free and has every eccentricity 22, so even a deadline timer that
// fires late still lands in a sweep that pruning cannot shortcut; the
// far-set filter leaves it slow too (the full batched check takes about
// 2.6 s at one worker on a 2-core Xeon).
func TestTimeoutCancelsMidBatchedScan(t *testing.T) {
	_, client := newTestServer(t, Config{MaxN: 1024})
	g := constructions.NewTorus(22).Graph()
	requireUnprunable(t, g)
	req := CheckRequest{
		Graph:     mustDTO(t, g),
		Objective: "max",
		Batched:   true,
		TimeoutMS: 1,
	}
	start := time.Now()
	_, err := client.Check(context.Background(), req)
	elapsed := time.Since(start)
	var ae *apiError
	if err == nil {
		t.Fatalf("batched check of n=968 with 1ms deadline succeeded in %v; expected 504", elapsed)
	}
	if !asAPIError(err, &ae) || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("got %v, want 504", err)
	}
	// A full batched n=968 check reads 968 shared rows ≫ 1ms; the
	// per-candidate poll must abort within one candidate plus chunk drain.
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; deadline is not being polled per candidate", elapsed)
	}
}

// requireUnprunable fails unless every agent of g must be scanned in full
// by a certification sweep: no eccentricity is at most 2 (the locality
// lemma) and no two vertices are twins, N(u)∖{v} = N(v)∖{u}. Timeout
// fixtures use it so that they stay slow.
func requireUnprunable(t *testing.T, g *graph.Graph) {
	t.Helper()
	n := g.N()
	for v := 0; v < n; v++ {
		if ecc, ok := g.Eccentricity(v); ok && ecc <= 2 {
			t.Fatalf("fixture vertex %d has eccentricity %d: the locality lemma settles it", v, ecc)
		}
	}
	if twins := game.LowerTwins(g.Freeze()); twins != nil {
		t.Fatalf("fixture has twins: the sweep skips every vertex marked in %v", twins)
	}
}

func asAPIError(err error, target **apiError) bool {
	ae, ok := err.(*apiError)
	if ok {
		*target = ae
	}
	return ok
}

// TestCacheHitIdenticalVerdict pins the verdict LRU contract: a repeat of
// the same request is served from cache (Cached=true) with a bit-identical
// verdict, and an isomorphic relabeling does NOT hit (witnesses name
// concrete vertices, and the certificate is not a complete invariant).
func TestCacheHitIdenticalVerdict(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	// A path is unstable under sum, so the verdict carries a witness.
	req := CheckRequest{Graph: mustDTO(t, constructions.Path(9)), Objective: "sum"}
	first, err := client.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("first check: %v", err)
	}
	if first.Cached {
		t.Fatalf("first request reported Cached")
	}
	second, err := client.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("second check: %v", err)
	}
	if !second.Cached {
		t.Fatalf("repeat request missed the cache")
	}
	if !reflect.DeepEqual(first.VerdictDTO, second.VerdictDTO) {
		t.Errorf("cached verdict %+v differs from computed %+v", second.VerdictDTO, first.VerdictDTO)
	}
	if snap := srv.Stats(); snap.Cache.Hits == 0 {
		t.Errorf("stats report zero cache hits after a hit")
	}

	// Same path, relabeled (evens then odds along the path): isomorphic,
	// same certificate, different labeled edge set — must be a miss, not a
	// wrong-witness hit.
	order := []int{0, 2, 4, 6, 8, 7, 5, 3, 1}
	relabeled := graph.New(9)
	for i := 0; i+1 < len(order); i++ {
		relabeled.AddEdge(order[i], order[i+1])
	}
	third, err := client.Check(context.Background(), CheckRequest{Graph: mustDTO(t, relabeled), Objective: "sum"})
	if err != nil {
		t.Fatalf("relabeled check: %v", err)
	}
	if third.Cached {
		t.Errorf("isomorphic relabeling served from cache; witness labels would be wrong")
	}
}

// TestBestResponseEndpoint checks /v1/bestresponse against the known best
// swap of a path endpoint's neighbor.
func TestBestResponseEndpoint(t *testing.T) {
	_, client := newTestServer(t, Config{})
	resp, err := client.BestResponse(context.Background(), BestResponseRequest{
		Graph: mustDTO(t, constructions.Path(6)),
		Agent: 0,
	})
	if err != nil {
		t.Fatalf("bestresponse: %v", err)
	}
	if !resp.Improves || resp.Move == nil {
		t.Fatalf("agent 0 of a path must have an improving move, got %+v", resp)
	}
	if resp.NewCost >= resp.OldCost {
		t.Errorf("move does not improve: %d -> %d", resp.OldCost, resp.NewCost)
	}
}

// TestDynamicsEndpoint runs best-response dynamics on a path over HTTP and
// verifies the trajectory matches the direct engine run bit-for-bit.
func TestDynamicsEndpoint(t *testing.T) {
	_, client := newTestServer(t, Config{})
	req := DynamicsRequest{
		Graph:     mustDTO(t, constructions.Path(8)),
		Objective: "sum",
		Policy:    "best",
		Trace:     true,
		Certify:   true,
	}
	got, err := client.Dynamics(context.Background(), req)
	if err != nil {
		t.Fatalf("dynamics: %v", err)
	}
	if !got.Converged {
		t.Fatalf("best-response on a path must converge, got %+v", got)
	}
	if got.Certified == nil || !got.Certified.Stable {
		t.Errorf("final graph not certified stable: %+v", got.Certified)
	}
	ref, _ := NewServer(Config{CacheSize: -1})
	want, err := ref.Dynamics(context.Background(), req)
	if err != nil {
		t.Fatalf("direct dynamics: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("HTTP trajectory diverges from direct run:\n got %+v\nwant %+v", got, want)
	}
}

// TestHealthzAndStats probes the operational endpoints.
func TestHealthzAndStats(t *testing.T) {
	_, client := newTestServer(t, Config{})
	if err := client.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if _, err := client.Check(context.Background(), CheckRequest{Graph: mustDTO(t, constructions.Star(5))}); err != nil {
		t.Fatalf("check: %v", err)
	}
	snap, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	ep, ok := snap.Endpoints["check"]
	if !ok || ep.Requests != 1 {
		t.Errorf("stats after one check: %+v", snap.Endpoints)
	}
}

// TestConcurrentClientsSharedPool hammers one server from many goroutines
// across all endpoints; meaningful under -race, and every verdict must
// still match the direct path.
func TestConcurrentClientsSharedPool(t *testing.T) {
	srv, client := newTestServer(t, Config{PoolSize: 2})
	graphs := []GraphDTO{
		mustDTO(t, constructions.Path(7)),
		mustDTO(t, constructions.Star(9)),
		mustDTO(t, constructions.Cycle(8)),
	}
	ref, _ := NewServer(Config{CacheSize: -1})
	const clients = 8
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			errs <- func() error {
				for i, dto := range graphs {
					req := CheckRequest{Graph: dto, Objective: "sum", Batched: c%2 == 0}
					got, err := client.Check(context.Background(), req)
					if err != nil {
						return err
					}
					want, err := ref.Check(context.Background(), req)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(got.VerdictDTO, want.VerdictDTO) {
						t.Errorf("client %d graph %d: verdict %+v, want %+v", c, i, got.VerdictDTO, want.VerdictDTO)
					}
					if _, err := client.BestResponse(context.Background(), BestResponseRequest{Graph: dto, Agent: 1}); err != nil {
						return err
					}
				}
				_, err := client.Dynamics(context.Background(), DynamicsRequest{
					Graph: graphs[0], Policy: "first", Seed: int64(c),
				})
				return err
			}()
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent client: %v", err)
		}
	}
	if snap := srv.Stats(); snap.Cache.Hits == 0 {
		t.Errorf("shared LRU saw no hits across %d clients re-checking %d graphs", clients, len(graphs))
	}
}

// TestDTORoundTrips pins the lossless Move/Violation wire conversions the
// CLI depends on for identical output.
func TestDTORoundTrips(t *testing.T) {
	viols := []*core.Violation{
		nil,
		{Kind: core.SwapImproves, Move: core.Move{V: 3, Drop: 1, Add: 5}, Agent: 3, OldCost: 20, NewCost: 18},
		{Kind: core.DeletionSafe, Edge: graph.NewEdge(2, 4), Agent: 2, OldCost: 3, NewCost: 3},
		{Kind: core.InsertionHelps, Edge: graph.NewEdge(0, 6), Agent: 0, OldCost: 4, NewCost: 3},
	}
	for i, v := range viols {
		got := violationToDTO(v).Violation()
		if !reflect.DeepEqual(got, v) {
			t.Errorf("violation %d: roundtrip %+v != %+v", i, got, v)
		}
	}
}

// TestLoadRoundTrip runs the full load harness (small settings) against an
// httptest server: zero divergences and a warm LRU.
func TestLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("load corpus in -short mode")
	}
	_, client := newTestServer(t, Config{})
	report, err := RunLoad(context.Background(), client.BaseURL, LoadOptions{Clients: 3, Rounds: 1})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if len(report.Failures) > 0 {
		t.Fatalf("%d load failures, first: %s", len(report.Failures), report.Failures[0])
	}
	if report.Stats.Cache.Hits == 0 {
		t.Errorf("load run left the verdict LRU cold: %+v", report.Stats.Cache)
	}
}
