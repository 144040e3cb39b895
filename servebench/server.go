package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one `bncg serve` process started for a set-up.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	dir  string
	log  *os.File
}

// startServer launches `bncg serve` on a free loopback port with a fresh
// journal directory under tmp and waits until /healthz answers.
func startServer(ctx context.Context, bin, tmp string, w *workload) (*serverProc, error) {
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"serve", "-addr", "127.0.0.1:" + strconv.Itoa(port), "-workers", "2"}, w.serverArgs(dir)...)
	log, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), dir: dir, log: log}
	deadline := time.Now().Add(60 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			p.stop()
			return nil, fmt.Errorf("server did not become healthy: %v (log %s)", err, p.tail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop kills the server, waits for it and removes its journal directory.
func (p *serverProc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait() // the error reports the kill
	p.log.Close()
	os.RemoveAll(p.dir)
}

func (p *serverProc) tail() string {
	b, _ := os.ReadFile(p.log.Name())
	s := strings.TrimSpace(string(b))
	if len(s) > 400 {
		s = s[len(s)-400:]
	}
	return s
}

// cpuTicks reads the server's user+system CPU time in clock ticks from
// /proc/<pid>/stat.
func (p *serverProc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return ut + st, nil
}

// clockTicksPerSecond is Linux's USER_HZ, the unit of /proc CPU times.
const clockTicksPerSecond = 100

// peakRSSMB reads the server's VmHWM.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// serverStats is the part of GET /stats the invariants read.
type serverStats struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Coalesce struct {
		Leaders   uint64 `json:"leaders"`
		Coalesced uint64 `json:"coalesced"`
	} `json:"coalesce"`
	Store    *storeStats `json:"store"`
	RowCache struct {
		RowsRecomputed  uint64 `json:"rows_recomputed"`
		RowsInvalidated uint64 `json:"rows_invalidated"`
	} `json:"row_cache"`
}

type storeStats struct {
	Hits    uint64 `json:"hits"`
	Appends uint64 `json:"appends"`
	Errors  uint64 `json:"errors"`
}

func (p *serverProc) stats(ctx context.Context) (*serverStats, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/stats", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	if st.Store == nil {
		st.Store = &storeStats{}
	}
	return &st, nil
}

// conn is one closed-loop client connection: its own transport, so each
// connection keeps exactly one keep-alive TCP connection.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *conn) close() { c.client.Transport.(*http.Transport).CloseIdleConnections() }

// outcome is one request's result as the client saw it.
type outcome struct {
	req     request
	latency time.Duration
	err     error
	body    []byte // the raw response; kept instead of the decoded value so the client's heap stays small
}

// do sends one request and decodes the response.
func (c *conn) do(ctx context.Context, r request) outcome {
	start := time.Now()
	o := outcome{req: r}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		o.err = err
		o.latency = time.Since(start)
		return o
	}
	o.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	var decoded map[string]any
	if err == nil {
		err = json.Unmarshal(o.body, &decoded)
	}
	o.latency = time.Since(start)
	if err != nil {
		o.err = fmt.Errorf("read response: %w", err)
	} else if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d: %v", resp.StatusCode, decoded["error"])
	}
	return o
}

// decoded returns the response body as a generic JSON value, numbers kept
// exact.
func (o outcome) decoded() (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(o.body))
	dec.UseNumber()
	var m map[string]any
	err := dec.Decode(&m)
	return m, err
}

// closedLoop runs one goroutine per stream, each sending its next request
// only after the previous one completed, until window (measured from
// start) closes; window 0 runs until next(s) reports the stream exhausted.
func closedLoop(ctx context.Context, base string, streams int, start time.Time, window time.Duration, next func(s int) (request, bool)) ([][]outcome, time.Duration) {
	out := make([][]outcome, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := newConn(base)
			defer c.close()
			for window <= 0 || time.Since(start) < window {
				r, ok := next(s)
				if !ok {
					return
				}
				out[s] = append(out[s], c.do(ctx, r))
			}
		}(s)
	}
	wg.Wait()
	return out, time.Since(start)
}
