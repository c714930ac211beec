package service

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stackcache/internal/artifact"
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

// engineMetrics is the per-engine slice of the registry: request count,
// cumulative executed steps, and a latency histogram. All fields are
// updated with atomics; the struct is never copied while live.
type engineMetrics struct {
	requests atomic.Int64
	steps    atomic.Int64
	buckets  [NumLatencyBuckets]atomic.Int64
}

// Metrics is the service's registry: lock-free counters every worker
// updates and any reader can snapshot while traffic is in flight. The
// zero value is ready to use. Per-engine slices are keyed by engine
// wire name, so the registry follows whatever engine set the service
// was built over — engines added through the engine registry get a
// slice on first execution with no code here.
type Metrics struct {
	requests  atomic.Int64 // received by Run/Compile, including rejects
	completed atomic.Int64 // finished (any class)

	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheCoalesced atomic.Int64 // waited on another request's compile

	analysisProved   atomic.Int64 // executions of depth-proved programs
	analysisUnproven atomic.Int64 // executions that kept dynamic checks

	quickenedPrograms atomic.Int64 // cached programs rewritten to superinstruction form
	quickenedOps      atomic.Int64 // superinstruction sites planted across those programs

	optimizedPrograms atomic.Int64                  // cached programs serving a validated optimizer rewrite
	optimizedOps      [vm.NumOptPasses]atomic.Int64 // rewritten/deleted instruction slots, per optimizer pass

	batchInputs       atomic.Int64                  // inputs executed via batch requests
	batchSizes        [NumBatchBuckets]atomic.Int64 // batch executions by input count
	batchInputResults [NumErrorClasses]atomic.Int64 // per-input outcomes within batches

	errors [NumErrorClasses]atomic.Int64

	engines sync.Map // engine name -> *engineMetrics
}

// optPassLabels mirrors the optimizer's pass set (vm.OptPass) into the
// service's label space: the vmd_optimized_ops_total{pass=...} series
// and the snapshot's optimized_ops keys. It is a keyed
// [vm.NumOptPasses]string literal on purpose — the repository linter
// holds such tables to full coverage, so a new optimizer pass cannot
// ship without a metric label.
var optPassLabels = [vm.NumOptPasses]string{
	vm.PassInline:     "inline",
	vm.PassConstFold:  "constfold",
	vm.PassBranchFold: "branchfold",
	vm.PassPeephole:   "peephole",
	vm.PassDCE:        "dce",
}

// observeAnalysis records one execution by the abstract interpreter's
// verdict for its program (see Response.Analysis).
func (m *Metrics) observeAnalysis(proved bool) {
	if proved {
		m.analysisProved.Add(1)
	} else {
		m.analysisUnproven.Add(1)
	}
}

// observeBatch records one executed batch of n inputs.
func (m *Metrics) observeBatch(n int) {
	m.batchInputs.Add(int64(n))
	b := 0
	if n > 1 {
		b = bits.Len(uint(n - 1)) // n <= 2^b
	}
	if b >= NumBatchBuckets {
		b = NumBatchBuckets - 1
	}
	m.batchSizes[b].Add(1)
}

// observeBatchInput records one input's outcome within a batch. These
// are deliberately separate from the request-level error counters:
// completed-by-class keeps summing to requests (a batch is one
// request), while per-input failures stay visible here.
func (m *Metrics) observeBatchInput(class ErrorClass) {
	m.batchInputResults[class].Add(1)
}

// observeDone records one finished request of any class.
func (m *Metrics) observeDone(class ErrorClass) {
	m.completed.Add(1)
	m.errors[class].Add(1)
}

// observeExec additionally records an execution that actually ran on
// the named engine: its step count and wall-clock latency.
func (m *Metrics) observeExec(engine string, steps int64, d time.Duration) {
	em := m.engineMetricsFor(engine)
	em.requests.Add(1)
	em.steps.Add(steps)
	us := d.Microseconds()
	b := 0
	if us > 0 {
		b = bits.Len64(uint64(us)) // us < 2^b
	}
	if b >= NumLatencyBuckets {
		b = NumLatencyBuckets - 1
	}
	em.buckets[b].Add(1)
}

func (m *Metrics) engineMetricsFor(engine string) *engineMetrics {
	if v, ok := m.engines.Load(engine); ok {
		return v.(*engineMetrics)
	}
	v, _ := m.engines.LoadOrStore(engine, &engineMetrics{})
	return v.(*engineMetrics)
}

// EngineSnapshot is the exported per-engine view.
type EngineSnapshot struct {
	Requests int64                    `json:"requests"`
	Steps    int64                    `json:"steps"`
	Latency  [NumLatencyBuckets]int64 `json:"latency_buckets"`
}

// Snapshot is a consistent-enough point-in-time copy of the registry
// (individual counters are read atomically; cross-counter skew under
// concurrent traffic is bounded by one in-flight request).
type Snapshot struct {
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`

	// CacheHits counts lookups the program cache served from memory,
	// CacheCoalesced those that joined another request's build, and
	// CacheMisses those that built the program or loaded it from disk,
	// failed builds included. CacheEvictions and CacheSize are the
	// artifact store's own evictions and resident units.
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

	// QuickenedPrograms counts cached programs the insert-time
	// quickener rewrote to superinstruction form (at least one planted
	// site); QuickenedOps is the total number of planted sites across
	// them. Both stay 0 when quickening is disabled.
	QuickenedPrograms int64 `json:"quickened_programs"`
	QuickenedOps      int64 `json:"quickened_ops"`

	// OptimizedPrograms counts cached programs serving the static
	// optimizer's rewrite (adopted only after the translation validator
	// certified it); OptimizedOps breaks the rewritten or deleted
	// instruction slots down by optimizer pass label. Every pass label
	// is always present, zero or not, so the metric's label set is the
	// pass set. Both stay 0 when optimization is disabled.
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
	// build / disk / built from source), corrupt disk entries
	// recomputed, units persisted, and LRU evictions. Disk counters
	// stay 0 without Config.CacheDir.
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

// snapshot copies the counters out of the registry.
func (m *Metrics) snapshot() Snapshot {
	s := Snapshot{
		Requests:            m.requests.Load(),
		Completed:           m.completed.Load(),
		CacheHits:           m.cacheHits.Load(),
		CacheMisses:         m.cacheMisses.Load(),
		CacheCoalesced:      m.cacheCoalesced.Load(),
		AnalysisProved:      m.analysisProved.Load(),
		AnalysisUnproven:    m.analysisUnproven.Load(),
		QuickenedPrograms:   m.quickenedPrograms.Load(),
		QuickenedOps:        m.quickenedOps.Load(),
		OptimizedPrograms:   m.optimizedPrograms.Load(),
		OptimizedOps:        make(map[string]int64, vm.NumOptPasses),
		BatchInputs:         m.batchInputs.Load(),
		BatchSizeBounds:     BatchBucketBounds(),
		BatchInputResults:   make(map[string]int64, NumErrorClasses),
		Errors:              make(map[string]int64, NumErrorClasses),
		Engines:             make(map[string]EngineSnapshot),
		LatencyBucketBounds: BucketBounds(),
	}
	for b := range s.BatchSizes {
		s.BatchSizes[b] = m.batchSizes[b].Load()
	}
	for pass, label := range optPassLabels {
		s.OptimizedOps[label] = m.optimizedOps[pass].Load()
	}
	for c := 0; c < NumErrorClasses; c++ {
		if n := m.errors[c].Load(); n != 0 {
			s.Errors[ErrorClass(c).String()] = n
		}
		if n := m.batchInputResults[c].Load(); n != 0 {
			s.BatchInputResults[ErrorClass(c).String()] = n
		}
	}
	m.engines.Range(func(key, value any) bool {
		em := value.(*engineMetrics)
		if em.requests.Load() == 0 {
			return true
		}
		es := EngineSnapshot{
			Requests: em.requests.Load(),
			Steps:    em.steps.Load(),
		}
		for b := range es.Latency {
			es.Latency[b] = em.buckets[b].Load()
		}
		s.Engines[key.(string)] = es
		return true
	})
	return s
}
