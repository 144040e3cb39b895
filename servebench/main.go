// Command servebench is the repository's end-to-end benchmark of
// `bncg serve`: one closed-loop client process drives a server process
// built from the commit under test over loopback HTTP on a seeded
// workload, checks every response against a cache-less in-process
// reference of the same commit, and prints the workload's metrics as one
// JSON object on the last line of standard output. With --trace 1 it
// also replays the workload in process with spans around each layer's
// public entry points and reports per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds both
// binaries first:
//
//	bash servebench/run.sh --workload check-hot --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run boots and warms a server; setup_s
// is their median and the last server serves the timed window.
const setupRepeats = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 15, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 replays the workload in process with spans and reports per-layer metrics")
		root    = flag.String("root", ".", "repository checkout holding testdata/atlas")
		bin     = flag.String("bncg", "", "bncg binary built from the checkout")
	)
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -bncg, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	res, detail, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	d, _ := json.Marshal(detail)
	fmt.Println(string(d))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// run measures one workload. detail carries everything a reader needs
// to interpret the figures and is printed before the result line.
func run(name string, seed int64, window time.Duration, traced bool, root, bin string) (*result, map[string]any, error) {
	ctx := context.Background()
	w, err := newWorkload(name, seed, root)
	if err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp("", "servebench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	detail := map[string]any{"workload": name, "seed": seed, "params": w.params, "host": fingerprint()}
	probe := hostProbe()
	detail["host.probe_ms"] = probe

	ref, err := newReference()
	if err != nil {
		return nil, nil, err
	}
	defer ref.srv.Close()
	if w.hot != nil {
		// Hot and pooled workloads repeat their distinct requests; answer
		// each once before anything is timed.
		if err := ref.answerAll(ctx, w.hot, refParallelism(w)); err != nil {
			return nil, nil, err
		}
	}

	// Leave the client's heap small and settled before anything is timed.
	runtime.GC()
	debug.FreeOSMemory()
	steal0, total0 := hostCPU()
	tm, err := timedRun(ctx, w, bin, tmp, window)
	if err != nil {
		return nil, nil, err
	}
	steal1, total1 := hostCPU()
	detail["host.steal_share"] = ratio(float64(steal1-steal0), float64(total1-total0))
	if w.hot == nil {
		// Every request of a distinct workload is new: answer exactly the
		// ones the timed window sent, plus the fixed digest prefix.
		if err := ref.answerAll(ctx, append(tm.sent(), tm.digestSet(w)...), refParallelism(w)); err != nil {
			return nil, nil, err
		}
	}
	gate := checkOutcomes(w, tm, ref)
	detail["digest"] = ref.digest(tm.digestSet(w))
	detail["gate"] = gate

	e2e := tm.endToEnd()
	detail["end_to_end"] = e2e
	detail["latency_tail_percentile"] = tm.tailP
	detail["latency_samples"] = tm.ok
	detail["setup_s_each"] = tm.setups
	res := &result{Correct: gate.correct(), Attempted: tm.attempted, Failed: gate.Failed, Metrics: e2e}
	if traced {
		layers, info, err := traceRun(ctx, w, tm, ref, root, tmp)
		if err != nil {
			return nil, nil, err
		}
		detail["trace"] = info
		layers["host.probe_ms"] = metric{probe, "ms"}
		res.Metrics = layers
	}
	return res, detail, nil
}

// refParallelism runs reference answers two at a time for single-worker
// checks and one at a time for two-worker trajectories.
func refParallelism(w *workload) int {
	if w.name == "dynamics" {
		return 1
	}
	return 2
}

// fingerprint records what the figures depend on besides the code.
func fingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

// hostCPU reads the machine-wide CPU ticks of /proc/stat: the ticks the
// hypervisor gave to other guests (steal) and all ticks. Their ratio over
// a run tells a slow host from slow code.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, x := range f[1:9] {
		v, _ := strconv.ParseInt(x, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

var probeSink uint64

// hostProbe times a fixed pure-Go loop: a diagnostic of the host's speed
// during this run, not a metric of the program.
func hostProbe() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 13
	}
	probeSink += x
	return ms(time.Since(start))
}
