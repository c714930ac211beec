package service

import (
	"maps"
	"math/bits"
	"strconv"
	"time"

	"stackcache/internal/artifact"
	"stackcache/internal/compiled"
	"stackcache/internal/vm"
)

// ErrorClass partitions everything that can go wrong with a request
// into a small, stable vocabulary. Counters are kept per class so that
// operators can tell a flood of hostile programs (limit, runtime) from
// a capacity problem (queue_full) or a client bug (bad_request,
// compile).
type ErrorClass int

const (
	// ClassOK is a successful execution.
	ClassOK ErrorClass = iota
	// ClassBadRequest is a malformed request (unknown engine, empty
	// source, out-of-range step budget, oversized args or memory
	// overlay).
	ClassBadRequest
	// ClassCompile is a Forth compilation or verification failure.
	ClassCompile
	// ClassLimit is an execution that exhausted its step, output or
	// response-stack budget.
	ClassLimit
	// ClassRuntime is any other runtime error (stack underflow,
	// division by zero, memory access out of range, ...).
	ClassRuntime
	// ClassQueueFull is a request rejected because the submission
	// queue was at capacity.
	ClassQueueFull
	// ClassCanceled is a request abandoned because its context was
	// canceled or its deadline expired before execution finished.
	ClassCanceled
	// ClassShutdown is a request rejected because the service is
	// closing.
	ClassShutdown

	// NumErrorClasses is the number of error classes.
	NumErrorClasses = int(ClassShutdown) + 1
)

var errorClassNames = [NumErrorClasses]string{
	"ok", "bad_request", "compile", "limit", "runtime",
	"queue_full", "canceled", "shutdown",
}

// String returns the class's wire name.
func (c ErrorClass) String() string {
	if c < 0 || int(c) >= NumErrorClasses {
		return "unknown"
	}
	return errorClassNames[c]
}

// NumLatencyBuckets is the number of exponential latency buckets per
// engine: bucket i counts executions with latency < 2^i microseconds,
// the last bucket catching everything slower.
const NumLatencyBuckets = 16

// BucketBounds returns the human-readable upper bounds of the latency
// histogram, in microseconds; the final entry is math-free shorthand
// for "everything else".
func BucketBounds() [NumLatencyBuckets]string {
	var out [NumLatencyBuckets]string
	for i := 0; i < NumLatencyBuckets-1; i++ {
		out[i] = "<" + strconv.Itoa(1<<i) + "us"
	}
	out[NumLatencyBuckets-1] = ">=" + strconv.Itoa(1<<(NumLatencyBuckets-1)) + "us"
	return out
}

// NumBatchBuckets is the number of exponential batch-size buckets:
// bucket i counts batches of at most 2^i inputs, the last bucket
// catching everything larger.
const NumBatchBuckets = 8

// BatchBucketBounds returns the human-readable upper bounds of the
// batch-size histogram, in inputs per batch.
func BatchBucketBounds() [NumBatchBuckets]string {
	var out [NumBatchBuckets]string
	for i := 0; i < NumBatchBuckets-1; i++ {
		out[i] = "<=" + strconv.Itoa(1<<i)
	}
	out[NumBatchBuckets-1] = ">" + strconv.Itoa(1<<(NumBatchBuckets-2))
	return out
}

// EngineSnapshot is the exported per-engine view. Latency is the
// execution latency histogram and LatencySum the total of the
// latencies it counts.
type EngineSnapshot struct {
	Requests   int64                    `json:"requests"`
	Steps      int64                    `json:"steps"`
	Latency    [NumLatencyBuckets]int64 `json:"latency_buckets"`
	LatencySum time.Duration            `json:"latency_sum_ns"`
}

// Snapshot is the service's metrics, each defined once here: the
// service keeps one Snapshot, counts into its fields under a lock, and
// Stats returns a copy taken under that lock, so the service's own
// counters in one snapshot are mutually consistent (completed-by-class
// sums to Completed). The cache and artifact counters are the artifact
// store's and the compiled counters the compiled engine's, which Stats
// reads alongside.
type Snapshot struct {
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`

	// CacheHits counts lookups the program cache served from memory,
	// CacheCoalesced those that joined another request's build, and
	// CacheMisses those that built the program or loaded it from disk,
	// failed builds included. A lookup that promoted a base unit is
	// none of these; the store counts it as Artifact.Promoted.
	// CacheEvictions and CacheSize are the store's evictions and
	// resident units. All but failed builds are read from the store
	// (see Stats).
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheCoalesced int64 `json:"cache_coalesced"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheSize      int   `json:"cache_size"`

	// AnalysisProved and AnalysisUnproven count executions by the
	// abstract interpreter's verdict for their program (see
	// Response.Analysis for which engines act on a proof).
	AnalysisProved   int64 `json:"analysis_proved"`
	AnalysisUnproven int64 `json:"analysis_unproven"`

	// QuickenedPrograms counts full builds, promotions included, whose
	// quickener rewrote the program to superinstruction form (at least
	// one planted site); QuickenedOps is the total number of planted
	// sites across them. Both stay 0 when quickening is disabled.
	QuickenedPrograms int64 `json:"quickened_programs"`
	QuickenedOps      int64 `json:"quickened_ops"`

	// OptimizedPrograms counts full builds, promotions included, that
	// serve the static optimizer's rewrite (adopted only after the
	// translation validator certified it); OptimizedOps breaks the
	// rewritten or deleted instruction slots down by optimizer pass
	// label. Every pass label is always present, zero or not, so the
	// metric's label set is the pass set. Both stay 0 when
	// optimization is disabled.
	OptimizedPrograms int64            `json:"optimized_programs"`
	OptimizedOps      map[string]int64 `json:"optimized_ops"`

	// CompiledPrograms and CompiledProved are the AOT closure
	// compiler's process-wide artifact counters: programs lowered to
	// closure artifacts, and the subset whose vm.Analyze proof earned a
	// check-elided code variant. Process-wide (not per-service) because
	// artifacts are cached inside the shared "compiled" engine.
	CompiledPrograms int64 `json:"compiled_programs"`
	CompiledProved   int64 `json:"compiled_proved"`

	// BatchInputs counts inputs executed via batch requests;
	// BatchSizes is the batch-size histogram (one count per executed
	// batch), labeled by BatchSizeBounds. BatchInputResults counts
	// per-input outcomes within batches by class wire name — these are
	// not in Errors, which counts whole requests.
	BatchInputs       int64                   `json:"batch_inputs"`
	BatchSizes        [NumBatchBuckets]int64  `json:"batch_size_buckets"`
	BatchSizeBounds   [NumBatchBuckets]string `json:"batch_size_bucket_bounds"`
	BatchInputResults map[string]int64        `json:"batch_input_results"`

	// Artifact is the program cache's tier accounting, the artifact
	// store's counters: how lookups were satisfied (memory / joined
	// build / disk / built from source / promoted), corrupt disk
	// entries recomputed, units persisted, and LRU evictions. Disk
	// counters stay 0 without Config.CacheDir.
	Artifact artifact.Counters `json:"artifact"`

	// Errors counts finished requests by class wire name, including
	// "ok".
	Errors map[string]int64 `json:"errors"`

	// Engines maps engine wire names to their per-engine counters.
	Engines map[string]EngineSnapshot `json:"engines"`

	// LatencyBucketBounds labels the latency histogram entries.
	LatencyBucketBounds [NumLatencyBuckets]string `json:"latency_bucket_bounds"`
}

// HitRate returns the cache hit fraction over all lookups, 0 when no
// lookup has happened yet.
func (s Snapshot) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses + s.CacheCoalesced
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stats returns a copy of the service's metrics. The cache counters
// are read from the artifact store: a memory hit is a cache hit, a
// joined build is coalesced, and a build or disk load is a miss, as is
// a failed lookup, which the store does not count and the service does
// (in its stats.CacheMisses).
func (s *Service) Stats() Snapshot {
	s.statsMu.Lock()
	snap := s.stats
	snap.OptimizedOps = maps.Clone(snap.OptimizedOps)
	snap.BatchInputResults = maps.Clone(snap.BatchInputResults)
	snap.Errors = maps.Clone(snap.Errors)
	snap.Engines = maps.Clone(snap.Engines)
	s.statsMu.Unlock()
	c := s.store.Counters()
	snap.CacheHits = c.MemoryHits
	snap.CacheCoalesced = c.Coalesced
	snap.CacheMisses += c.Misses + c.DiskHits
	snap.CacheEvictions = c.Evictions
	snap.CacheSize = s.store.Len()
	snap.CompiledPrograms, snap.CompiledProved = compiled.Counters()
	snap.Artifact = c
	return snap
}

// newStats returns the metrics of a service that has served nothing:
// every optimizer pass label present, so the optimized_ops label set is
// the pass set, and empty (not nil) maps elsewhere.
func newStats() Snapshot {
	s := Snapshot{
		OptimizedOps:        make(map[string]int64, vm.NumOptPasses),
		BatchSizeBounds:     BatchBucketBounds(),
		BatchInputResults:   make(map[string]int64, NumErrorClasses),
		Errors:              make(map[string]int64, NumErrorClasses),
		Engines:             make(map[string]EngineSnapshot),
		LatencyBucketBounds: BucketBounds(),
	}
	for pass := vm.OptPass(0); pass < vm.NumOptPasses; pass++ {
		s.OptimizedOps[pass.String()] = 0
	}
	return s
}

// count applies f to the service's metrics under their lock.
func (s *Service) count(f func(m *Snapshot)) {
	s.statsMu.Lock()
	f(&s.stats)
	s.statsMu.Unlock()
}

// observeDone records one finished request of any class.
func (s *Service) observeDone(class ErrorClass) {
	s.count(func(m *Snapshot) {
		m.Completed++
		m.Errors[class.String()]++
	})
}

// observeExec records one task a worker ran: its engine's execution
// count, steps and wall-clock latency, the program's analysis verdict
// once per input, and for a batch its size and each input's class.
// Per-input classes are deliberately kept out of Errors: a batch is one
// request, so completed-by-class keeps summing to requests, while
// per-input failures stay visible in BatchInputResults.
func (s *Service) observeExec(t *task, resp *Response, d time.Duration) {
	s.count(func(m *Snapshot) {
		name := t.eng.Name()
		e := m.Engines[name]
		e.Requests++
		e.Steps += resp.Steps
		e.Latency[expBucket(d.Microseconds(), NumLatencyBuckets)]++ // us < 2^b
		e.LatencySum += d
		m.Engines[name] = e
		runs := int64(1)
		if t.inputs != nil {
			runs = int64(len(t.inputs))
			m.BatchInputs += runs
			m.BatchSizes[expBucket(runs-1, NumBatchBuckets)]++ // runs <= 2^b
			for _, r := range resp.Results {
				m.BatchInputResults[r.Class().String()]++
			}
		}
		if t.spec.Facts.Proved {
			m.AnalysisProved += runs
		} else {
			m.AnalysisUnproven += runs
		}
	})
}

// expBucket returns the smallest b with v < 2^b, clamped to the last
// of n buckets.
func expBucket(v int64, n int) int {
	return min(bits.Len64(uint64(max(v, 0))), n-1)
}
