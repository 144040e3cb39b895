package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/constructions"
	"repro/internal/graph"
	"repro/internal/iso"
)

// fivePrism is the pentagonal prism (circular ladder CL5) as the circulant
// C10(2,5): jump 2 traces the two 5-cycles, jump 5 the rungs. Like the
// Petersen graph it is 3-regular and vertex-transitive on 10 vertices, but
// it has girth 4 where Petersen has girth 5 — two non-isomorphic graphs
// that WL-1 refinement (iso.Certificate past n = 8) cannot tell apart.
func fivePrism() GraphDTO {
	d, err := EncodeGraph(constructions.Circulant(10, []int{2, 5}), FormatSparse6)
	if err != nil {
		panic(err)
	}
	return d
}

// TestCertCollidingGraphsBothStayWarm: Petersen and the 5-prism share an
// iso certificate (WL-1 cannot split 3-regular vertex-transitive graphs),
// so a cache key derived from that canonical form conflates them, and
// checked alternately they evict each other and recertify on every
// request. Both must stay warm, and each hit must return its own graph's
// verdict, bit-identical to the cache-less direct path.
func TestCertCollidingGraphsBothStayWarm(t *testing.T) {
	petersen := mustDTO(t, constructions.Petersen())
	prism := fivePrism()
	pg, _ := petersen.Decode()
	qg, _ := prism.Decode()
	if iso.Certificate(pg) != iso.Certificate(qg) {
		t.Fatalf("test premise broken: Petersen and the 5-prism no longer share a certificate")
	}

	srv, client := newTestServer(t, Config{})
	ref, _ := NewServer(Config{CacheSize: -1})
	reqs := []CheckRequest{
		{Graph: petersen, Objective: "sum"},
		{Graph: prism, Objective: "sum"},
	}
	want := make([]VerdictDTO, len(reqs))
	for i, req := range reqs {
		direct, err := ref.Check(context.Background(), req)
		if err != nil {
			t.Fatalf("direct check %d: %v", i, err)
		}
		want[i] = direct.VerdictDTO
		first, err := client.Check(context.Background(), req)
		if err != nil {
			t.Fatalf("first check %d: %v", i, err)
		}
		if first.Cached {
			t.Fatalf("first check %d reported Cached", i)
		}
	}
	// Alternate repeats: every one must now hit, with the right verdict.
	for round := 0; round < 2; round++ {
		for i, req := range reqs {
			got, err := client.Check(context.Background(), req)
			if err != nil {
				t.Fatalf("round %d check %d: %v", round, i, err)
			}
			if !got.Cached {
				t.Errorf("round %d check %d missed the cache — colliding graphs evict each other", round, i)
			}
			if !reflect.DeepEqual(got.VerdictDTO, want[i]) {
				t.Errorf("round %d check %d verdict %+v, want %+v", round, i, got.VerdictDTO, want[i])
			}
		}
	}
	if snap := srv.Stats(); snap.Cache.Misses != 2 {
		t.Errorf("%d certifications for 2 distinct graphs checked repeatedly", snap.Cache.Misses)
	}
}

// TestBestResponseTimeoutMidScan pins mid-scan cancellation of
// /v1/bestresponse: a deadline expiring during the per-agent best-response
// scan must return 504, cut short by the cancel poll between pricing
// units — not after the scan runs its thousands of candidate swaps to
// completion. Agent 1 of the 4096-cycle has eccentricity 2048, so the
// locality lemma cannot settle it without the scan.
func TestBestResponseTimeoutMidScan(t *testing.T) {
	_, client := newTestServer(t, Config{MaxN: 4096})
	req := BestResponseRequest{
		Graph:     mustDTO(t, constructions.Cycle(4096)),
		Agent:     1, // ~4093 candidate endpoints × 2 drops, each a priced unit
		Objective: "sum",
		TimeoutMS: 1,
	}
	start := time.Now()
	_, err := client.BestResponse(context.Background(), req)
	elapsed := time.Since(start)
	var ae *apiError
	if err == nil {
		t.Fatalf("best-response scan over n=4096 with 1ms deadline succeeded in %v; expected 504", elapsed)
	}
	if !asAPIError(err, &ae) || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("got %v, want 504", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; deadline is not being polled mid-scan", elapsed)
	}
}

// TestDuplicateStormSingleCertification pins the tentpole coalescing
// contract: k concurrent byte-identical checks against a pool of one slot
// run exactly one certification. The certify hook holds the leader until
// every follower is parked on the flight, so the test is deterministic:
// k-1 followers, 1 leader, 1 cache miss, and all k responses bit-identical
// up to the transport flags. Meaningful under -race.
func TestDuplicateStormSingleCertification(t *testing.T) {
	const k = 8
	srv, client := newTestServer(t, Config{PoolSize: 1})
	srv.certifyHook = func() {
		deadline := time.Now().Add(10 * time.Second)
		for srv.verdicts.waiting.Load() < k-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	req := CheckRequest{Graph: mustDTO(t, constructions.Path(10)), Objective: "sum"}

	var wg sync.WaitGroup
	gate := make(chan struct{})
	resps := make([]*CheckResponse, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			resps[i], errs[i] = client.Check(context.Background(), req)
		}(i)
	}
	close(gate)
	wg.Wait()

	coalesced := 0
	var wantBody []byte
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if resps[i].Coalesced {
			coalesced++
		}
		body, err := json.Marshal(comparableCheck(resps[i]))
		if err != nil {
			t.Fatalf("marshal %d: %v", i, err)
		}
		if wantBody == nil {
			wantBody = body
		} else if string(body) != string(wantBody) {
			t.Errorf("client %d response diverges:\n  got:  %s\n  want: %s", i, body, wantBody)
		}
	}
	snap := srv.Stats()
	if snap.Coalesce.Leaders != 1 || snap.Coalesce.Coalesced != k-1 {
		t.Errorf("coalesce counters leaders=%d coalesced=%d, want 1/%d (followers seen: %d)",
			snap.Coalesce.Leaders, snap.Coalesce.Coalesced, k-1, coalesced)
	}
	if snap.Cache.Misses != 1 {
		t.Errorf("%d certifications for %d identical concurrent requests, want exactly 1", snap.Cache.Misses, k)
	}
}

// TestCoalescedFollowerHonorsOwnDeadline: a follower whose deadline expires
// while the leader is still certifying gets its own 504 without disturbing
// the flight; the leader still completes normally.
func TestCoalescedFollowerHonorsOwnDeadline(t *testing.T) {
	srv, client := newTestServer(t, Config{PoolSize: 1})
	leaderIn := make(chan struct{})
	followerParked := make(chan struct{})
	srv.certifyHook = func() {
		close(leaderIn)
		deadline := time.Now().Add(10 * time.Second)
		for srv.verdicts.waiting.Load() < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(followerParked)
		// Outlive the follower's 50ms budget so its deadline, not the
		// leader's completion, resolves the wait.
		<-time.After(300 * time.Millisecond)
	}
	req := CheckRequest{Graph: mustDTO(t, constructions.Path(11)), Objective: "sum"}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := client.Check(context.Background(), req)
		leaderErr <- err
	}()
	// The unbounded request must lead: fire the bounded one only once the
	// leader is inside its certification.
	<-leaderIn
	follower := CheckRequest{Graph: req.Graph, Objective: "sum", TimeoutMS: 50}
	_, err := client.Check(context.Background(), follower)
	// The follower coalesces only if it carries the same cache key; its
	// TimeoutMS is not part of the key, so it parks on the leader's flight
	// and must time out on its own budget.
	var ae *apiError
	if err == nil || !asAPIError(err, &ae) || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("parked follower with 50ms budget got %v, want 504", err)
	}
	select {
	case <-followerParked:
	default:
		t.Fatalf("follower never parked on the leader's flight")
	}
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader failed after follower timeout: %v", err)
	}
}

// TestPublishRaceSingleCertification is the deterministic regression for
// the lookup/publish race: a second identical request arriving around the
// leader's publish must join the leader's flight or hit its verdict, never
// lead a second certification. Hooks at the lookup and resolve points
// force each interleaving in turn, with the leader parked just before it
// publishes and the second request parked just before its lookup:
//
//   - the second request looks up before the publish: it must join;
//   - it arrived before the publish but looks up after it: it must hit;
//   - its lookup races the publish: it must do one or the other.
func TestPublishRaceSingleCertification(t *testing.T) {
	const iterations = 1200
	req := CheckRequest{Graph: mustDTO(t, constructions.Path(6)), Objective: "sum"}
	type result struct {
		resp *CheckResponse
		err  error
	}
	for i := 0; i < iterations; i++ {
		order := i % 3
		srv, err := NewServer(Config{CacheSize: 8})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		var certs, lookups, resolves atomic.Int32
		atPublish, publish := make(chan struct{}), make(chan struct{})
		atLookup, lookup := make(chan struct{}), make(chan struct{})
		srv.certifyHook = func() { certs.Add(1) }
		srv.verdicts.resolveHook = func() {
			if resolves.Add(1) == 1 {
				close(atPublish)
				<-publish
			}
		}
		srv.verdicts.lookupHook = func() {
			if lookups.Add(1) == 2 {
				close(atLookup)
				<-lookup
			}
		}
		first, second := make(chan result, 1), make(chan result, 1)
		run := func(out chan<- result) {
			resp, err := srv.Check(context.Background(), req)
			out <- result{resp, err}
		}
		go run(first)
		<-atPublish
		go run(second)
		<-atLookup
		var leader result
		switch order {
		case 0:
			close(lookup)
			deadline := time.Now().Add(10 * time.Second)
			for srv.verdicts.waiting.Load() < 1 {
				if time.Now().After(deadline) {
					close(publish)
					t.Fatalf("iteration %d: second request never joined the leader's flight", i)
				}
				runtime.Gosched()
			}
			close(publish)
			leader = <-first
		case 1:
			close(publish)
			leader = <-first
			close(lookup)
		case 2:
			close(lookup)
			close(publish)
			leader = <-first
		}
		got := <-second
		if leader.err != nil || got.err != nil {
			t.Fatalf("iteration %d: leader err %v, second err %v", i, leader.err, got.err)
		}
		if n := certs.Load(); n != 1 {
			t.Fatalf("iteration %d (order %d): %d certifications for one key", i, order, n)
		}
		joined, hit := got.resp.Coalesced, got.resp.Cached && !got.resp.Coalesced
		if (order == 0 && !joined) || (order == 1 && !hit) || !(joined || hit) {
			t.Fatalf("iteration %d (order %d): second request coalesced=%t cached=%t",
				i, order, got.resp.Coalesced, got.resp.Cached)
		}
		if !reflect.DeepEqual(got.resp.VerdictDTO, leader.resp.VerdictDTO) {
			t.Fatalf("iteration %d: second verdict %+v, leader %+v", i, got.resp.VerdictDTO, leader.resp.VerdictDTO)
		}
		if snap := srv.Stats(); snap.Cache.Misses != 1 || snap.Coalesce.Leaders != 1 {
			t.Fatalf("iteration %d: misses %d leaders %d, want 1/1", i, snap.Cache.Misses, snap.Coalesce.Leaders)
		}
		srv.Close()
	}
}

// TestTimeoutBoundsPreAdmissionWork pins that nothing super-linear runs
// before the request deadline and the session pool: a timeout_ms: 1 check
// of a path at the default MaxN answers within a second, either 504 or the
// cache-less reference's verdict.
func TestTimeoutBoundsPreAdmissionWork(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ref, err := NewServer(Config{CacheSize: -1, DefaultTimeout: -1})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	path := mustDTO(t, constructions.Path(defaultMaxN))
	for _, obj := range []string{"sum", "max"} {
		start := time.Now()
		got, err := client.Check(context.Background(), CheckRequest{Graph: path, Objective: obj, TimeoutMS: 1})
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("%s: timeout_ms 1 check of Path(%d) answered after %v", obj, defaultMaxN, elapsed)
		}
		if err != nil {
			var ae *apiError
			if !asAPIError(err, &ae) || ae.Status != http.StatusGatewayTimeout {
				t.Errorf("%s: got %v, want 504 or the verdict", obj, err)
			}
			continue
		}
		want, err := ref.Check(context.Background(), CheckRequest{Graph: path, Objective: obj})
		if err != nil {
			t.Fatalf("%s: reference check: %v", obj, err)
		}
		if !reflect.DeepEqual(got.VerdictDTO, want.VerdictDTO) {
			t.Errorf("%s: verdict %+v, reference %+v", obj, got.VerdictDTO, want.VerdictDTO)
		}
	}
}

// TestStoreRoundTrip pins the persistent store lifecycle: boot with a
// store, miss, certify (journaled), restart on the same path, and the
// restarted server answers from the store — Cached and Stored set, verdict
// bit-identical — without recomputation.
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	cfg := Config{StorePath: path}
	// A path is unstable under sum, so the journaled verdict carries a
	// witness — the round-trip covers the full violation encoding.
	req := CheckRequest{Graph: mustDTO(t, constructions.Path(9)), Objective: "sum"}

	srv1, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("boot 1: %v", err)
	}
	first, err := srv1.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("first check: %v", err)
	}
	if first.Cached || first.Stored {
		t.Fatalf("cold check reported Cached=%t Stored=%t", first.Cached, first.Stored)
	}
	if snap := srv1.Stats(); snap.Store == nil || snap.Store.Appends != 1 || snap.Store.Entries != 1 {
		t.Fatalf("store counters after one certification: %+v", snap.Store)
	}
	if err := srv1.Close(); err != nil {
		t.Fatalf("close 1: %v", err)
	}

	srv2, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("boot 2: %v", err)
	}
	defer srv2.Close()
	if snap := srv2.Stats(); snap.Store == nil || snap.Store.Entries != 1 {
		t.Fatalf("restart replayed %+v, want 1 entry", snap.Store)
	}
	second, err := srv2.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("warm check: %v", err)
	}
	if !second.Cached || !second.Stored {
		t.Fatalf("restarted server did not answer from the store: Cached=%t Stored=%t", second.Cached, second.Stored)
	}
	if !reflect.DeepEqual(second.VerdictDTO, first.VerdictDTO) {
		t.Errorf("stored verdict %+v differs from certified %+v", second.VerdictDTO, first.VerdictDTO)
	}
	snap := srv2.Stats()
	if snap.Store.Hits != 1 || snap.Cache.Misses != 0 {
		t.Errorf("warm check counters: store hits %d, cache misses %d; want 1, 0", snap.Store.Hits, snap.Cache.Misses)
	}
	// The store hit promoted the verdict into the LRU: a third identical
	// request is an ordinary cache hit, not a second store lookup.
	third, err := srv2.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("third check: %v", err)
	}
	if !third.Cached || third.Stored {
		t.Errorf("post-promotion check: Cached=%t Stored=%t, want LRU hit", third.Cached, third.Stored)
	}
}

// TestStoreToleratesCorruptLines: comments, blanks, torn JSON, and entries
// with undecodable graphs must be skipped at replay — a torn tail write
// cannot brick the boot — while intact lines still serve.
func TestStoreToleratesCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	cfg := Config{StorePath: path}
	req := CheckRequest{Graph: mustDTO(t, constructions.Star(7)), Objective: "sum"}

	srv1, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("boot 1: %v", err)
	}
	if _, err := srv1.Check(context.Background(), req); err != nil {
		t.Fatalf("certify: %v", err)
	}
	srv1.Close()

	garbage := "# a comment\n\n{\"id\":\"sv-torn\",\"kind\":\"verdi" + // torn tail
		"\nnot json at all\n" +
		`{"id":"sv-bad","kind":"verdict","sparse6":"!!invalid!!","model":{},"objective":"sum","stable":true}` + "\n"
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("boot over corrupt journal: %v", err)
	}
	defer srv2.Close()
	if snap := srv2.Stats(); snap.Store.Entries != 1 {
		t.Errorf("replayed %d entries over a corrupt journal, want the 1 intact line", snap.Store.Entries)
	}
	got, err := srv2.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("warm check: %v", err)
	}
	if !got.Stored {
		t.Errorf("intact line did not serve after corrupt-line replay")
	}
}

// TestStoreAppendAfterTornTail: a journal whose last line was torn mid-write
// (no trailing newline) must not swallow the next append. The fresh
// verdict starts on its own line, so after a restart the repeated check
// is answered from the store.
func TestStoreAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	if err := os.WriteFile(path, []byte(`{"id":"sv-torn","kind":"verdi`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{StorePath: path}
	req := CheckRequest{Graph: mustDTO(t, constructions.Star(7)), Objective: "sum"}

	srv1, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("boot over torn journal: %v", err)
	}
	first, err := srv1.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if first.Stored {
		t.Fatal("first check answered from the store; the journal held no verdict")
	}
	srv1.Close()

	srv2, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	got, err := srv2.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("warm check: %v", err)
	}
	if !got.Stored {
		t.Error("verdict appended after a torn tail was lost at replay")
	}
	if !reflect.DeepEqual(got.VerdictDTO, first.VerdictDTO) {
		t.Errorf("stored verdict %+v, certified %+v", got.VerdictDTO, first.VerdictDTO)
	}
}

// TestStoreSeedsFromAtlas boots a store warm-started from the checked-in
// equilibrium atlas and replays every corpus entry as a live check
// request: each answer must come from the store with the corpus verdict,
// zero certifications run. One fresh certification then compacts the
// journal (a 1-byte bound), copying every seeded line into it by offset,
// and a restart on the compacted journal alone must serve the same
// verdicts again.
func TestStoreSeedsFromAtlas(t *testing.T) {
	const corpus = "../../testdata/atlas"
	raw, err := os.ReadFile(filepath.Join(corpus, "atlas.jsonl"))
	if err != nil {
		t.Skipf("no checked-in atlas corpus: %v", err)
	}
	var entries []StoreEntry
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e StoreEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("corpus line does not parse as a StoreEntry: %v", err)
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		t.Fatalf("empty atlas corpus")
	}
	fresh := CheckRequest{Graph: mustDTO(t, constructions.Path(9)), Objective: "sum"}
	var certified VerdictDTO
	serveAll := func(srv *Server, boot string) {
		t.Helper()
		for _, e := range entries {
			got, err := srv.Check(context.Background(), CheckRequest{
				Graph:      GraphDTO{Format: FormatSparse6, Data: e.Sparse6},
				Model:      e.Model,
				Objective:  e.Objective,
				StableOnly: e.StableOnly,
			})
			if err != nil {
				t.Fatalf("%s: check of corpus entry %s: %v", boot, e.ID, err)
			}
			if !got.Stored {
				t.Fatalf("%s: corpus entry %s not served from the store", boot, e.ID)
			}
			if want := e.verdict(); !reflect.DeepEqual(got.VerdictDTO, want) {
				t.Errorf("%s: entry %s served %+v, corpus says %+v", boot, e.ID, got.VerdictDTO, want)
			}
		}
		if snap := srv.Stats(); snap.Cache.Misses != 0 {
			t.Errorf("%s: %d certifications run for stored entries", boot, snap.Cache.Misses)
		}
	}

	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	srv, err := NewServer(Config{
		StorePath:     path,
		StoreSeed:     corpus, // a directory: resolves to atlas.jsonl inside
		StoreMaxBytes: 1,
	})
	if err != nil {
		t.Fatalf("boot with atlas seed: %v", err)
	}
	if snap := srv.Stats(); snap.Store.Entries != len(entries) {
		t.Errorf("seeded %d store entries from a %d-line corpus", snap.Store.Entries, len(entries))
	}
	serveAll(srv, "seeded")
	got, err := srv.Check(context.Background(), fresh)
	if err != nil {
		t.Fatalf("fresh certification: %v", err)
	}
	certified = got.VerdictDTO
	if snap := srv.Stats(); snap.Store.Appends != 1 || snap.Store.Errors != 0 {
		t.Fatalf("fresh certification: %d appends, %d errors", snap.Store.Appends, snap.Store.Errors)
	}
	srv.Close()

	srv, err = NewServer(Config{StorePath: path})
	if err != nil {
		t.Fatalf("boot over the compacted journal: %v", err)
	}
	defer srv.Close()
	if snap := srv.Stats(); snap.Store.Entries != len(entries)+1 {
		t.Errorf("compacted journal replayed %d entries, want %d", snap.Store.Entries, len(entries)+1)
	}
	serveAll(srv, "restarted")
	got, err = srv.Check(context.Background(), fresh)
	if err != nil || !got.Stored || !reflect.DeepEqual(got.VerdictDTO, certified) {
		t.Errorf("journaled verdict after compaction + restart: %+v err %v, want stored %+v", got, err, certified)
	}
}

// TestStoreHitNeedsExactLine: the index's digest only locates a line; a
// hit re-reads it and must find exactly the graph and spec asked for, so
// a digest that locates another graph's or another spec's line is a miss.
func TestStoreHitNeedsExactLine(t *testing.T) {
	s, err := openVerdictStore(Config{StorePath: filepath.Join(t.TempDir(), "verdicts.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	a, b := mustDTO(t, constructions.Path(6)).Data, mustDTO(t, constructions.Star(6)).Data
	sum, max := CheckRequest{Objective: "sum"}, CheckRequest{Objective: "max"}
	aSum, aMax, bSum := checkKey(sum, a), checkKey(max, a), checkKey(sum, b)
	unstable := VerdictDTO{Violation: &ViolationDTO{Kind: "swap-improves", Agent: 0, OldCost: 15, NewCost: 11}}
	if err := s.append(aSum, a, sum, unstable); err != nil {
		t.Fatal(err)
	}
	if err := s.append(aMax, a, max, VerdictDTO{Stable: true}); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.get(aSum, a); !ok || !reflect.DeepEqual(v, unstable) {
		t.Fatalf("genuine hit: %+v ok=%t", v, ok)
	}
	if _, ok := s.get(aSum, b); ok {
		t.Errorf("a probe for another exact graph hit")
	}
	s.index[bSum] = s.index[aSum]
	if _, ok := s.get(bSum, b); ok {
		t.Errorf("a digest locating another graph's line hit")
	}
	s.index[aMax] = s.index[aSum]
	if _, ok := s.get(aMax, a); ok {
		t.Errorf("a digest locating another spec's line hit")
	}
}

// TestStoreIndexHeapPerVerdict bounds what the unbounded store index keeps
// resident per verdict. Interests-model lines at n = 192 carry a few KB of
// graph and interest sets each; the index must hold none of it, only the
// digest, the verdict and the line's location.
func TestStoreIndexHeapPerVerdict(t *testing.T) {
	const lines, n, bound = 500, 192, 512
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	s, err := openVerdictStore(Config{StorePath: path, StoreFsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := CheckRequest{Model: ModelDTO{Name: "interests", Interests: ringInterests(n)}, Objective: "sum"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < lines; i++ {
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v, rng.Intn(v))
		}
		exact := mustDTO(t, g).Data
		v := VerdictDTO{Violation: &ViolationDTO{
			Kind: "swap-improves", Move: &MoveDTO{V: i % n, Drop: 1, Add: 2}, Agent: i % n, OldCost: 900, NewCost: 800,
		}}
		if err := s.append(checkKey(req, exact), exact, req, v); err != nil {
			t.Fatal(err)
		}
	}
	s.close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err = openVerdictStore(Config{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer s.close()
	if s.len() != lines {
		t.Fatalf("replayed %d verdicts, want %d", s.len(), lines)
	}
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / lines; per > bound {
		t.Errorf("store index holds %d B per verdict, want at most %d", per, bound)
	}
}

// TestStoreCompaction: a 1-byte size bound forces a compaction on every
// append; the journal must stay replayable (one line per live verdict)
// across a restart.
func TestStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	cfg := Config{StorePath: path, StoreMaxBytes: 1}
	reqs := []CheckRequest{
		{Graph: mustDTO(t, constructions.Path(6)), Objective: "sum"},
		{Graph: mustDTO(t, constructions.Star(6)), Objective: "sum"},
	}
	srv1, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("boot 1: %v", err)
	}
	for i, req := range reqs {
		if _, err := srv1.Check(context.Background(), req); err != nil {
			t.Fatalf("certify %d: %v", i, err)
		}
	}
	if snap := srv1.Stats(); snap.Store.Errors != 0 {
		t.Fatalf("%d append/compaction errors", snap.Store.Errors)
	}
	srv1.Close()

	srv2, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("boot over compacted journal: %v", err)
	}
	defer srv2.Close()
	if snap := srv2.Stats(); snap.Store.Entries != len(reqs) {
		t.Errorf("compacted journal replayed %d entries, want %d", snap.Store.Entries, len(reqs))
	}
	for i, req := range reqs {
		got, err := srv2.Check(context.Background(), req)
		if err != nil {
			t.Fatalf("warm check %d: %v", i, err)
		}
		if !got.Stored {
			t.Errorf("verdict %d lost across compaction + restart", i)
		}
	}
}

// TestStreamMatchesBlobTrace pins the streaming contract: the streamed
// move events concatenate to exactly the blob endpoint's Trace, the event
// order is start → moves → result, and the terminal result equals the blob
// response bit-for-bit.
func TestStreamMatchesBlobTrace(t *testing.T) {
	_, client := newTestServer(t, Config{})
	req := DynamicsRequest{
		Graph:     mustDTO(t, constructions.Path(8)),
		Objective: "sum",
		Policy:    "best",
		Trace:     true,
		Certify:   true,
	}
	blob, err := client.Dynamics(context.Background(), req)
	if err != nil {
		t.Fatalf("blob dynamics: %v", err)
	}

	var events []string
	var moves []TraceEntryDTO
	streamed, err := client.DynamicsStream(context.Background(), req, func(ev StreamEvent) error {
		events = append(events, ev.Event)
		if ev.Event == StreamMove {
			if ev.Move == nil {
				t.Errorf("move event without a move payload")
			} else {
				moves = append(moves, *ev.Move)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream dynamics: %v", err)
	}
	if len(events) == 0 || events[0] != StreamStart {
		t.Errorf("stream did not open with a start event: %v", events)
	}
	if events[len(events)-1] != StreamResult {
		t.Errorf("stream did not close with a result event: %v", events)
	}
	// Caching is bypassed for dynamics, so the runs are bit-identical.
	if !reflect.DeepEqual(streamed, blob) {
		t.Errorf("streamed result diverges from blob response:\n got %+v\nwant %+v", streamed, blob)
	}
	if !reflect.DeepEqual(moves, blob.Trace) {
		t.Errorf("streamed moves diverge from blob trace:\n got %+v\nwant %+v", moves, blob.Trace)
	}
}

// TestStreamValidationErrorIsPlainStatus: a request that fails validation
// must come back as the ordinary JSON error taxonomy (no 200, no events).
func TestStreamValidationErrorIsPlainStatus(t *testing.T) {
	_, client := newTestServer(t, Config{})
	req := DynamicsRequest{Graph: mustDTO(t, constructions.Path(6)), Policy: "chaotic"}
	events := 0
	_, err := client.DynamicsStream(context.Background(), req, func(StreamEvent) error {
		events++
		return nil
	})
	var ae *apiError
	if err == nil || !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("bad policy over the stream endpoint got %v, want 400", err)
	}
	if events != 0 {
		t.Errorf("%d events streamed before the validation failure", events)
	}
}

// TestDuplicateLoadRoundTrip runs the duplicate-heavy harness end to end
// against a live server: no divergences, and at most one certification per
// distinct scenario key.
func TestDuplicateLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("load corpus in -short mode")
	}
	_, client := newTestServer(t, Config{})
	report, err := RunDuplicateLoad(context.Background(), client.BaseURL, LoadOptions{Clients: 4})
	if err != nil {
		t.Fatalf("RunDuplicateLoad: %v", err)
	}
	if len(report.Failures) > 0 {
		t.Fatalf("%d duplicate-load failures, first: %s", len(report.Failures), report.Failures[0])
	}
	if int(report.Leaders) > report.Scenarios {
		t.Errorf("%d certifications for %d distinct keys", report.Leaders, report.Scenarios)
	}
	if report.Requests != 4*report.Scenarios {
		t.Errorf("issued %d requests for %d clients × %d scenarios", report.Requests, 4, report.Scenarios)
	}
}
