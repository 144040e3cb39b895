package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"unicode"

	"repro/internal/graphio"
)

// StoreEntry is one line of the persistent verdict journal: a graph, the
// check it was certified under, and the verdict — the certification prefix
// of the atlas corpus schema (atlas.Entry embeds this struct and extends
// it with discovery metadata), so a checked-in atlas corpus parses
// directly as a warm-start seed and journal lines read as corpus-shaped
// records. Field order is the canonical rendering order; the atlas
// verifier byte-compares re-marshaled entries, so it is load-bearing.
type StoreEntry struct {
	// ID is a stable line identifier ("sv-…" for journal appends, the
	// corpus ID when seeded from an atlas).
	ID string `json:"id"`
	// Kind is "verdict" for journal appends (atlas corpora use their own
	// kinds).
	Kind string `json:"kind"`
	// Source records who certified the line ("serve" for journal appends).
	Source string `json:"source"`
	// Sparse6 is the exact labeled graph (graphio sparse6 encoding) the
	// verdict was certified for — the same soundness rule as the LRU: a
	// lookup hits only on an exact labeled match.
	Sparse6 string `json:"sparse6"`
	// Model selects the deviation model, in the wire shape.
	Model ModelDTO `json:"model"`
	// Objective is "sum" or "max".
	Objective string `json:"objective"`
	// StableOnly mirrors CheckRequest.StableOnly.
	StableOnly bool `json:"stable_only,omitempty"`
	// Batched mirrors CheckRequest.Batched — part of the check's identity
	// (the verdict reports the executed path). Atlas corpora never set it:
	// they pin the per-agent path.
	Batched bool `json:"batched,omitempty"`
	// BatchedRan mirrors VerdictDTO.Batched, the executed-path report.
	BatchedRan bool `json:"batched_ran,omitempty"`
	// Stable is the certified verdict.
	Stable bool `json:"stable"`
	// Witness is the violation witness for unstable graphs.
	Witness *ViolationDTO `json:"witness,omitempty"`
}

// verdict reconstructs the wire verdict the entry persisted.
func (e *StoreEntry) verdict() VerdictDTO {
	return VerdictDTO{Stable: e.Stable, Violation: e.Witness, Batched: e.BatchedRan}
}

// key recomputes the entry's verdict key from its spec and graph.
func (e *StoreEntry) key() verdictKey {
	return checkKey(CheckRequest{Model: e.Model, Objective: e.Objective, StableOnly: e.StableOnly, Batched: e.Batched}, e.Sparse6)
}

// verdictStore is the persistent side of the verdict table: an
// append-only JSONL journal of certified verdicts, replayed into an
// in-memory index at boot and appended on every certification, so a
// restarted server answers previously certified checks without
// recomputation. All methods are nil-receiver-safe: a server without a
// configured store path carries a nil store.
//
// The index is unbounded — the journal is the durable record, and its
// size is governed by compaction (StoreMaxBytes), not by eviction — so it
// holds no graphs: per verdictKey only the verdict and where its line
// lives. A hit re-reads that line and serves the verdict only if the line
// names the exact labeled graph and spec asked for.
type verdictStore struct {
	mu         sync.Mutex
	path       string
	f          *os.File // the journal, read by offset and appended at its end
	seed       *os.File // the read-only seed corpus, nil without one
	index      map[verdictKey]storeLoc
	size       int64 // journal bytes written, drives compaction
	torn       bool  // the replayed journal ends mid-line; see append
	appends    uint64
	fsyncEvery int   // 1 = every append, N = every N appends, 0 = never
	maxBytes   int64 // compact when the journal exceeds this (0 = never)
}

// storeLoc is one indexed verdict and the location of its line.
type storeLoc struct {
	verdict VerdictDTO
	off     int64 // byte offset of the line's JSON in its file
	n       int32 // length of the line's JSON, without the newline
	seed    bool  // the line lives in the seed corpus, not the journal
}

// openVerdictStore opens (creating if absent) the journal at
// cfg.StorePath, optionally warm-seeding the index from an atlas corpus
// (cfg.StoreSeed: a JSONL file or a directory holding one) before
// replaying the journal, so journaled verdicts win over seeded ones.
// An empty StorePath returns a nil store.
func openVerdictStore(cfg Config) (*verdictStore, error) {
	if cfg.StorePath == "" {
		return nil, nil
	}
	fsyncEvery := 1
	switch {
	case cfg.StoreFsyncEvery > 0:
		fsyncEvery = cfg.StoreFsyncEvery
	case cfg.StoreFsyncEvery < 0:
		fsyncEvery = 0
	}
	s := &verdictStore{
		path:       cfg.StorePath,
		index:      make(map[verdictKey]storeLoc),
		fsyncEvery: fsyncEvery,
		maxBytes:   cfg.StoreMaxBytes,
	}
	if cfg.StoreSeed != "" {
		seed := cfg.StoreSeed
		if fi, err := os.Stat(seed); err == nil && fi.IsDir() {
			seed = filepath.Join(seed, "atlas.jsonl")
		}
		f, err := os.Open(seed)
		if err != nil {
			return nil, fmt.Errorf("serve: store seed %s: %w", seed, err)
		}
		s.seed = f
		if _, err := s.load(f, true); err != nil {
			f.Close()
			return nil, fmt.Errorf("serve: store seed %s: %w", seed, err)
		}
	}
	f, err := os.OpenFile(cfg.StorePath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err == nil {
		s.f = f
		s.size, err = s.load(f, false)
	}
	if err == nil && s.size > 0 {
		last := make([]byte, 1)
		if _, err = f.ReadAt(last, s.size-1); err == nil {
			s.torn = last[0] != '\n'
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("serve: store %s: %w", cfg.StorePath, err)
	}
	return s, nil
}

// load replays one JSONL file into the index and returns its size.
// Comment ('#') and blank lines are skipped; lines that fail to parse or
// whose graphs fail to decode are tolerated and skipped (a torn tail
// write must not brick the boot), except when the file itself cannot be
// read. Later lines win: journal over seed, newer appends over older.
func (s *verdictStore) load(f *os.File, seed bool) (int64, error) {
	r := bufio.NewReader(f)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		body := bytes.TrimLeftFunc(line, unicode.IsSpace)
		start := off + int64(len(line)-len(body))
		body = bytes.TrimRightFunc(body, unicode.IsSpace)
		off += int64(len(line))
		var e StoreEntry
		if len(body) > 0 && body[0] != '#' && json.Unmarshal(body, &e) == nil {
			if _, derr := graphio.FromSparse6(e.Sparse6); derr == nil {
				s.index[e.key()] = storeLoc{verdict: e.verdict(), off: start, n: int32(len(body)), seed: seed}
			}
		}
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			return off, err
		}
	}
}

// get returns the stored verdict for (key, exact graph), if present. The
// indexed line is re-read and must name exactly this graph and spec.
func (s *verdictStore) get(key verdictKey, exact string) (VerdictDTO, bool) {
	if s == nil {
		return VerdictDTO{}, false
	}
	s.mu.Lock()
	loc, ok := s.index[key]
	var line []byte
	if ok {
		var err error
		line, err = s.readLocked(loc)
		ok = err == nil
	}
	s.mu.Unlock()
	if !ok {
		return VerdictDTO{}, false
	}
	var e StoreEntry
	if json.Unmarshal(line, &e) != nil || e.Sparse6 != exact || e.key() != key {
		return VerdictDTO{}, false
	}
	return loc.verdict, true
}

// readLocked reads an indexed line's JSON from the file holding it.
func (s *verdictStore) readLocked(loc storeLoc) ([]byte, error) {
	f := s.f
	if loc.seed {
		f = s.seed
	}
	line := make([]byte, loc.n)
	_, err := f.ReadAt(line, loc.off)
	return line, err
}

// append journals a freshly certified verdict and indexes it. The write
// is fsynced per the configured policy; exceeding the size bound triggers
// a compaction that rewrites one line per indexed verdict. When the
// replayed journal ended mid-line (a crash during a write), the first
// append starts with a newline, so the torn fragment stays its own
// unparseable line instead of swallowing this verdict at the next replay.
func (s *verdictStore) append(key verdictKey, exact string, req CheckRequest, v VerdictDTO) error {
	if s == nil {
		return nil
	}
	e := StoreEntry{
		ID:         fmt.Sprintf("sv-%x", key[:8]),
		Kind:       "verdict",
		Source:     "serve",
		Sparse6:    exact,
		Model:      req.Model,
		Objective:  objectiveName(req.Objective),
		StableOnly: req.StableOnly,
		Batched:    req.Batched,
		BatchedRan: v.Batched,
		Stable:     v.Stable,
		Witness:    v.Violation,
	}
	b, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	b = append(b, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.torn {
		n, err := s.f.Write([]byte{'\n'})
		s.size += int64(n)
		if err != nil {
			return err
		}
		s.torn = false
	}
	off := s.size
	n, err := s.f.Write(b)
	s.size += int64(n)
	if err != nil {
		return err
	}
	s.index[key] = storeLoc{verdict: v, off: off, n: int32(len(b) - 1)}
	s.appends++
	if s.fsyncEvery > 0 && s.appends%uint64(s.fsyncEvery) == 0 {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	if s.maxBytes > 0 && s.size > s.maxBytes {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the journal with exactly one line per indexed
// verdict — the live lines, copied by offset — via a temp file and rename,
// so a crash mid-compaction leaves either the old or the new journal
// intact. The index moves to the new offsets only once the rename has
// succeeded.
func (s *verdictStore) compactLocked() error {
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	w := bufio.NewWriter(f) // write errors are sticky: Flush reports them
	index := make(map[verdictKey]storeLoc, len(s.index))
	var size int64
	for k, loc := range s.index {
		line, err := s.readLocked(loc)
		if err != nil {
			return fail(err)
		}
		w.Write(line)
		w.WriteByte('\n')
		index[k] = storeLoc{verdict: loc.verdict, off: size, n: loc.n}
		size += int64(loc.n) + 1
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fail(err)
	}
	s.f.Close()
	s.f, s.size, s.index = f, size, index
	return nil
}

// len returns the number of indexed verdicts.
func (s *verdictStore) len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// close releases the journal and seed file handles.
func (s *verdictStore) close() error {
	if s == nil {
		return nil
	}
	if s.seed != nil {
		s.seed.Close()
	}
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}
