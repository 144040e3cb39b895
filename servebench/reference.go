package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/serve"
)

// reference answers requests on an in-process, cache-less serve.Server
// built from the same commit as the server under test: the expected
// response of every timed request, computed once per distinct request
// and never timed.
type reference struct {
	srv     *serve.Server
	mu      sync.Mutex
	answers map[string][]byte // request body → canonical response
}

func newReference() (*reference, error) {
	srv, err := serve.NewServer(serve.Config{CacheSize: -1, MaxWorkers: 2, DefaultTimeout: -1})
	if err != nil {
		return nil, err
	}
	return &reference{srv: srv, answers: map[string][]byte{}}, nil
}

// call decodes r's bytes the way the HTTP handler does and calls the
// matching Server method.
func call(ctx context.Context, srv *serve.Server, r request) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	switch r.path {
	case pathCheck:
		var req serve.CheckRequest
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		return srv.Check(ctx, req)
	case pathDynamics:
		var req serve.DynamicsRequest
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		return srv.Dynamics(ctx, req)
	}
	return nil, fmt.Errorf("unknown path %q", r.path)
}

// canonical renders a response with the transport-dependent flags —
// cached, stored, coalesced — stripped, as the service's own load
// harness compares them: equal bytes mean bit-identical answers.
func canonical(v any) ([]byte, error) {
	m, ok := v.(map[string]any)
	if !ok {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber()
		if err := dec.Decode(&m); err != nil {
			return nil, err
		}
	}
	cp := make(map[string]any, len(m))
	for k, x := range m {
		switch k {
		case "cached", "stored", "coalesced":
		default:
			cp[k] = x
		}
	}
	return json.Marshal(cp)
}

// answerAll computes the answers of every request not yet known, on par
// goroutines.
func (ref *reference) answerAll(ctx context.Context, reqs []request, par int) error {
	var todo []request
	seen := map[string]bool{}
	ref.mu.Lock()
	for _, r := range reqs {
		k := string(r.body)
		if _, ok := ref.answers[k]; !ok && !seen[k] {
			seen[k] = true
			todo = append(todo, r)
		}
	}
	ref.mu.Unlock()
	errs := make([]error, par)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += par {
				resp, err := call(ctx, ref.srv, todo[i])
				if err == nil {
					var c []byte
					c, err = canonical(resp)
					if err == nil {
						ref.mu.Lock()
						ref.answers[string(todo[i].body)] = c
						ref.mu.Unlock()
						continue
					}
				}
				errs[w] = fmt.Errorf("reference answer for a %s request (n=%d): %w", todo[i].class, todo[i].n, err)
				return
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (ref *reference) answer(r request) []byte {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	return ref.answers[string(r.body)]
}

// digest is the SHA-256 of the canonical answers of reqs in order, so a
// change to any verdict or trajectory changes it.
func (ref *reference) digest(reqs []request) string {
	h := sha256.New()
	for _, r := range reqs {
		h.Write(ref.answer(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
