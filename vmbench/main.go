// Command vmbench is the repository's benchmark. It measures vmd, the
// HTTP front end of the execution service, end to end over loopback,
// and in a separate traced run times each layer beneath it.
//
// Run it from the repository root through its wrapper, which builds vmd
// and this program from the tree under test and pins both to one CPU:
//
//	bash vmbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//
// Workloads (each a closed loop over one connection, seeded):
//
//   - paper: the four paper programs as singleton /run requests on the
//     default engine, prims2x and cross 40% each, compile and gray 10%
//     each. Execution dominates. Set-up is a warm restart over a cache
//     directory an earlier daemon filled.
//   - tiny: a pool of 16 small args-driven programs compiled in set-up;
//     every fifth request is a batch of 16 inputs. HTTP, JSON, cache
//     lookup and the queue hand-off dominate.
//   - cold: every request carries a never-seen generated program, so
//     the artifact pipeline (compile, verify, optimize, validate,
//     quicken, analyze) and cache eviction dominate.
//
// BENCHMARK.json runs tiny and cold. paper is left out of it: on the
// 2-vCPU virtual machine the benchmark was tuned on, the host ran the
// short paper programs up to 45% faster for seconds to minutes at a
// time, and paper's p50 and req/s spread over ten runs by up to 47%,
// beyond the 25% the benchmark may gate on. Two workloads also leave
// time for longer runs. The traced run of every workload still measures
// every engine on the paper programs.
//
// Every response is checked against an expected result computed
// without the code under test: a golden file for the paper programs and
// the generator's own evaluator for tiny and cold. After the loop the
// daemon's /stats must show the cache behaviour the workload implies
// and no request of a class other than ok.
//
// With --trace 0 the last stdout line carries the end-to-end metrics:
// setup_s (median of set-ups done in groups between stretches of the
// timed loop), and req_per_s, latency_p50_ms and latency_p99_ms over
// all stretches. With --trace 1 it carries the per-layer metrics of a
// traced replay of the same seed (see trace.go). The line before it records provenance: source
// revision, CPUs, Go version, seed, the host calibration loop and, for
// traced runs, the tracing overhead. Builds, run directories, traces
// and exact counts live under .bench_build.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	root, vmd, dir string
	digest         string // sourceDigest of the tree under test
	seed           uint64
	hostCPUs       int
	seconds        time.Duration
	w              *workload

	attempted, failed int
	problems          []string // self-check and nondeterminism failures
	prov              map[string]any
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper, tiny or cold")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		vmd     = flag.String("vmd", "", "path of the vmd binary under test")
		cpus    = flag.Int("host-cpus", 0, "CPUs of the host, for provenance")
	)
	flag.Parse()
	// One connection and one generator goroutine need little heap; a
	// higher GC target keeps collections rare while measuring.
	debug.SetGCPercent(400)

	w, ok := workloadSet[*name]
	if !ok || *vmd == "" || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: vmbench -vmd BIN --workload paper|tiny|cold --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "cmd", "vmd"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmbench: run from the repository root:", err)
		os.Exit(2)
	}
	r := &run{
		root: root, vmd: *vmd, seed: *seed, w: w, hostCPUs: *cpus,
		seconds: time.Duration(*seconds) * time.Second,
		dir:     filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())),
	}
	out, err := r.execute(*trace == 1)
	if rmErr := os.RemoveAll(r.dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmbench:", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "vmbench: FAILED CHECK:", p)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": r.prov})
	line, _ := json.Marshal(out)
	fmt.Println(string(prov))
	fmt.Println(string(line))
}

func (r *run) execute(traced bool) (*outcome, error) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if r.digest, err = sourceDigest(r.root); err != nil {
		return nil, err
	}
	r.prov = map[string]any{
		"workload":      r.w.name,
		"seed":          r.seed,
		"traced":        traced,
		"revision":      revision(r.root, r.digest),
		"source_digest": r.digest,
		"nproc":         r.hostCPUs,
		"cpus_usable":   runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
	}
	calibBefore := calibrate()
	var metrics map[string]metric
	if traced {
		metrics, err = r.traced()
	} else {
		metrics, err = r.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	calibAfter := calibrate()
	r.prov["host_calib_ns"] = []float64{calibBefore, calibAfter}
	if traced {
		metrics["host.calib_ns"] = metric{(calibBefore + calibAfter) / 2, "ns"}
	}
	return &outcome{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   metrics,
	}, nil
}

// problem records a failed self-check; the run reports correct=false.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// revision names the source tree under test: the git commit when the
// tree is a repository, else its source digest.
func revision(root, digest string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "src-sha256:" + digest
}

// sourceDigest is a digest of every file of vmd's module sources and of
// this benchmark. Unlike the git commit it covers uncommitted edits, so
// it keys what may only be compared between runs of the same code.
func sourceDigest(root string) (string, error) {
	var files []string
	for _, top := range []string{"go.mod", "cmd", "internal", "vmbench"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				files = append(files, p)
			}
			return err
		})
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

var calibSink uint64

// calibrate times a fixed integer loop owned by the benchmark, in ns
// per iteration (median of five). It does not touch the code under
// test; it shows how fast the host ran around a measurement.
func calibrate() float64 {
	const n = 1 << 21
	var t [5]float64
	for k := range t {
		x := uint64(k + 1)
		start := time.Now()
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 29
		}
		t[k] = float64(time.Since(start).Nanoseconds()) / n
		calibSink += x
	}
	return median(t[:])
}

// ---- statistics ----

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank percentile of xs (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
