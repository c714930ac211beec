// Package service is the concurrent execution layer over every engine
// in this repository: a compile-once/execute-many front end in the
// style production interpreters use to amortize compilation and
// validation across requests.
//
// The pieces, front to back:
//
//   - the program cache: one artifact.Store per service, addressed by
//     SHA-256 of compile options + Forth source. The store owns the
//     cache policy (bounded LRU, single-flight builds, the optional
//     disk tier), so N concurrent requests for the same source trigger
//     exactly one compile and only verified programs are ever cached.
//     Run gives a never-seen program the store's base build; Compile,
//     or artifact.PromoteSteps executed source steps, gives it the
//     full build;
//   - the engine registry (internal/engine): requests select an engine
//     by wire name, and every engine the registry knows — baselines,
//     dynamic and static stack caching, the generated per-state
//     interpreters — is servable with no per-engine code here;
//   - per-request ExecSpec plumbing: step and output budgets plus
//     program inputs (initial stack, memory overlay), so one cached
//     program serves many computations — cache keys are source-only;
//   - a worker pool with a bounded submission queue and context-based
//     deadlines while queued, so a hostile program can never wedge a
//     worker or balloon its memory;
//   - machine reuse via sync.Pool (interp.Machine.Rebind), so
//     steady-state executions allocate near zero;
//   - one metrics Snapshot under a lock: requests, errors by class,
//     executed steps and per-engine latency histograms, with the cache
//     counters read from the artifact store — exportable as JSON
//     (Stats) or Prometheus text (WritePrometheus).
//
// cmd/vmd exposes the same API over HTTP/JSON.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"stackcache/internal/artifact"
	"stackcache/internal/engine"
	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// DefaultEngine is the engine requests that name none run under: the
// cheapest baseline, so clients that do not care get the fastest
// default.
const DefaultEngine = "switch"

// Config sizes and configures a Service. The zero value is usable:
// every field has a sensible default.
type Config struct {
	// Workers is the number of executor goroutines (default
	// GOMAXPROCS).
	Workers int

	// QueueDepth bounds the submission queue (default 4×Workers).
	// When the queue is full, Run fails fast with ClassQueueFull
	// instead of building an unbounded backlog.
	QueueDepth int

	// CacheSize bounds the program cache, the service's artifact
	// store (default 256 units). Past the bound the least recently
	// used unit is evicted; a later request for it builds it again
	// (or loads it from CacheDir).
	CacheSize int

	// DefaultMaxSteps is the step budget for requests that do not set
	// one (default 1<<24). MaxStepCeiling caps what a request may ask
	// for (default 1<<30).
	DefaultMaxSteps int64
	MaxStepCeiling  int64

	// MaxOutputBytes bounds the bytes a single execution may print
	// (default 1<<20). Exceeding it fails the request with ClassLimit,
	// so a program allowed a large step budget cannot materialize an
	// arbitrarily large output buffer in the daemon.
	MaxOutputBytes int

	// MaxStackCells bounds the data-stack cells a response carries
	// (default 1024), symmetric to the output clamp: a deep-stack halt
	// fails with ClassLimit and the shipped stack is truncated to the
	// cap, so a reply can never balloon on Response.Stack.
	MaxStackCells int

	// MaxBatchInputs bounds the inputs one batch request may carry
	// (default 64). Oversized batches are rejected with
	// ClassBadRequest before compilation, like the other request
	// budgets — the cap bounds how long a batch can monopolize one
	// worker, since a batch runs on a single worker pass.
	MaxBatchInputs int

	// CompileOptions configures the Forth compiler for every program
	// entering the cache (options are part of the cache key).
	CompileOptions forth.Options

	// Quicken enables cache-time quickening in the full build: a
	// program compiled through Compile, or promoted after running
	// artifact.PromoteSteps source steps, is rewritten to
	// superinstruction form (vm.Quicken) and re-verified, so every
	// later execution of the program — on any engine — runs the fused
	// bytecode. A program Run meets first gets a base build, which
	// neither quickens nor optimizes. Observable behavior is
	// unchanged: a superinstruction counts one step per constituent
	// and reports its first constituent's errors, so quickened and
	// unquickened runs agree on output, stack, step counts and error
	// class at every budget. Off by default.
	Quicken bool

	// Optimize enables cache-time optimization in the full build (see
	// Quicken for which programs get one): the program is run through
	// the static optimizer (vm.Optimize) and the rewrite is adopted
	// only when the independent translation validator
	// (vm.CheckTranslation) proves it observably equivalent to the
	// compiled source program — same output bytes, final stack,
	// memory writes and error class at every budget, in no more steps.
	// A refused rewrite is counted and the unoptimized program is
	// served. Off by default.
	Optimize bool

	// CacheDir, when non-empty, enables the artifact store's on-disk
	// tier: every full unit (quickened bytecode + analysis facts,
	// checksummed) is persisted there, and a restarted service
	// warm-starts from it without recompiling, re-verifying or
	// re-analyzing previously-seen programs. Base units are never
	// persisted. Entries are keyed by
	// (source hash, policy fingerprint), so a directory can be shared
	// across services only when their compile options and quicken and
	// optimize settings agree; corrupt files are deleted and
	// recomputed, never trusted.
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultMaxSteps <= 0 {
		c.DefaultMaxSteps = 1 << 24
	}
	if c.MaxStepCeiling <= 0 {
		c.MaxStepCeiling = 1 << 30
	}
	if c.MaxOutputBytes <= 0 {
		c.MaxOutputBytes = 1 << 20
	}
	if c.MaxStackCells <= 0 {
		c.MaxStackCells = 1024
	}
	if c.MaxBatchInputs <= 0 {
		c.MaxBatchInputs = 64
	}
	return c
}

// Request is one execution to perform.
type Request struct {
	// Source is the Forth program; it must define main.
	Source string `json:"source"`

	// Engine selects the execution engine by its registry wire name
	// ("switch", "dynamic", "static", ...). Empty means DefaultEngine.
	Engine string `json:"engine"`

	// MaxSteps is this request's step budget; 0 means the service
	// default. Budgets above the service ceiling are rejected.
	MaxSteps int64 `json:"max_steps"`

	// Args is the program's initial data stack, bottom first — the
	// compile-once/execute-many payoff: the cache key covers only
	// (options, source), so one cached program serves any number of
	// argument sets without recompiling.
	Args []vm.Cell `json:"args"`

	// Mem, when non-empty, is overlaid over the program's data image
	// starting at address 0. It must fit the program's memory. JSON
	// carries it base64-encoded.
	Mem []byte `json:"mem"`

	// Inputs, when non-empty, makes this a batch request: the program
	// is executed once per input, all on one worker pass with one
	// pooled machine re-seeded between inputs, and the response
	// carries one InputResult per input. Batching amortizes the
	// per-request overhead (queue hand-off, machine setup, response
	// framing) that dominates small programs. Mutually exclusive with
	// the singleton Args/Mem fields; bounded by Config.MaxBatchInputs.
	Inputs []Input `json:"inputs"`
}

// Input is one execution's inputs within a batch request: its own
// initial data stack and memory overlay, with the same semantics as
// the singleton Request.Args/Mem. The program, engine and budgets are
// shared by the whole batch.
type Input struct {
	// Args is this input's initial data stack, bottom first.
	Args []vm.Cell `json:"args"`

	// Mem, when non-empty, is overlaid over the program's data image
	// starting at address 0. It must fit the program's memory.
	Mem []byte `json:"mem"`
}

// Response is the outcome of a successfully executed request. When Run
// returns an execution error (ClassLimit, ClassRuntime), the response
// still carries the partial output and step count for diagnosis.
type Response struct {
	// Key is the program's content address in the cache.
	Key string `json:"key"`

	// Engine echoes the engine that ran the program.
	Engine string `json:"engine"`

	// Output is everything the program printed, clamped to the
	// service's output budget.
	Output string `json:"output"`

	// Stack is the final data stack, bottom first, truncated to the
	// service's MaxStackCells. StackDepth is the true final depth, so
	// a truncated reply is detectable (StackDepth > len(Stack)).
	Stack      []vm.Cell `json:"stack"`
	StackDepth int       `json:"stack_depth"`

	// Steps is the number of instructions executed.
	Steps int64 `json:"steps"`

	// CacheHit reports whether the program was served from the cache
	// (including coalescing onto another request's in-flight compile,
	// and a lookup that promoted the cached base build to the full
	// build).
	CacheHit bool `json:"cache_hit"`

	// Analysis reports the abstract interpreter's verdict for the
	// program: "proved" when per-pc stack-depth bounds were established,
	// "unproven" when they were not. Only the engines with a
	// check-elided path (token, threaded, traced, compiled) skip stack
	// bounds checks on a proved program; the others, the default switch
	// engine among them, keep every check either way.
	Analysis string `json:"analysis"`

	// Quickened reports whether the cached program was rewritten to
	// superinstruction form at insert time (false when quickening is
	// disabled or nothing in the program matched the fusion table).
	Quickened bool `json:"quickened"`

	// Optimized reports whether the cached program is the static
	// optimizer's rewrite, adopted only after the translation validator
	// (vm.CheckTranslation) certified it observably equivalent to the
	// compiled source program (false when optimization is disabled, the
	// optimizer declined, or the validator refused the rewrite).
	Optimized bool `json:"optimized"`

	// StepsAccounting names the instruction stream Steps counted (and
	// the step budget bound): "source" when the executed program is the
	// compiled source program, "optimized" when it is the validated
	// rewrite — which the validator guarantees takes no more steps than
	// the source program, so a budget sufficient for the source program
	// is always sufficient for the rewrite.
	StepsAccounting string `json:"steps_accounting"`

	// SourceSteps is the executed step count in source-program terms
	// when the service knows it: equal to Steps for "source" accounting,
	// and 0 under "optimized" accounting (the source program was not
	// executed, so its step count is unknown — only bounded below by
	// Steps). JSON omits it when 0.
	SourceSteps int64 `json:"source_steps,omitempty"`

	// Results holds the per-input outcomes of a batch request, in
	// input order; nil for singleton requests. A batch response's
	// singleton Output/Stack fields stay empty — each input's state is
	// in its own result — and Steps is the total across inputs. It
	// has no JSON form here: a result's Err needs one that flattens it
	// into a class name and a message, which vmd adds.
	Results []InputResult `json:"-"`
}

// InputResult is one input's outcome within a batch response. Inputs
// are isolated: a failing input reports its classified error here and
// the rest of the batch still executes, so Run returns a nil error for
// a batch whose every input was at least attempted.
type InputResult struct {
	// Output, Stack, StackDepth and Steps have the singleton
	// Response field semantics, clamped to the same response budgets.
	Output     string
	Stack      []vm.Cell
	StackDepth int
	Steps      int64

	// Err is this input's classified execution failure, nil on
	// success. Like a singleton limit/runtime error, a failed input
	// still carries its partial output and step count for diagnosis.
	Err *Error
}

// Class returns the input's error class (ClassOK on success).
func (r InputResult) Class() ErrorClass {
	if r.Err == nil {
		return ClassOK
	}
	return r.Err.Class
}

// Error is a classified service failure.
type Error struct {
	Class ErrorClass
	Err   error
}

func (e *Error) Error() string { return e.Class.String() + ": " + e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

func classified(class ErrorClass, err error) *Error {
	return &Error{Class: class, Err: err}
}

// Classify maps any error Run returns to its class. Nil maps to
// ClassOK.
func Classify(err error) ErrorClass {
	if err == nil {
		return ClassOK
	}
	var se *Error
	if errors.As(err, &se) {
		return se.Class
	}
	var re *interp.RuntimeError
	if errors.As(err, &re) {
		if re.Msg == interp.MsgStepLimit || re.Msg == interp.MsgOutputLimit {
			return ClassLimit
		}
		return ClassRuntime
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	return ClassRuntime
}

// task is one queued execution: a ready-to-run (compiled, verified,
// prepared) unit with its response key, the engine to run it under,
// and the per-request ExecSpec. No per-engine plumbing — the engine
// seam is the interface. For batch requests, inputs is non-nil and
// spec's Args/Mem are per-input (the spec carries the shared budgets
// and facts).
type task struct {
	ctx    context.Context
	key    string
	unit   *artifact.Unit
	eng    engine.Engine
	spec   interp.ExecSpec
	inputs []Input // non-nil for batch requests
	done   chan result
}

type result struct {
	resp *Response
	err  error
}

// Service is the concurrent execution service. Create one with New,
// submit with Run, observe with Stats, and stop it with Close.
type Service struct {
	cfg    Config
	optKey string          // cfg.CompileOptions.CacheKey(), computed once
	store  *artifact.Store // the program cache

	statsMu sync.Mutex
	stats   Snapshot // the service's metrics, guarded by statsMu; see Stats

	// onCompile, when set, runs at the start of every real compiler
	// invocation. Tests use it to prove single-flight dedup (exactly
	// one compile per source) and to hold compiles open.
	onCompile func(src string)

	engines     map[string]engine.Engine
	engineNames []string // registry order, for error messages and introspection

	machines sync.Pool // of *interp.Machine

	tasks chan *task
	wg    sync.WaitGroup

	mu     sync.RWMutex // guards closing against in-flight submits
	closed bool
}

// New fills in cfg's defaults, takes the registry's default-policy
// engine set (engine.All), starts the worker pool and returns the
// running service.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	engines := engine.All()
	s := &Service{
		cfg:     cfg,
		optKey:  cfg.CompileOptions.CacheKey(),
		store:   newStore(cfg),
		stats:   newStats(),
		engines: make(map[string]engine.Engine, len(engines)),
		tasks:   make(chan *task, cfg.QueueDepth),
	}
	for _, e := range engines {
		s.engines[e.Name()] = e
		s.engineNames = append(s.engineNames, e.Name())
	}
	s.machines.New = func() any { return new(interp.Machine) }
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Engines lists the service's selectable engine names in registry
// order.
func (s *Service) Engines() []string {
	return append([]string(nil), s.engineNames...)
}

// Close stops the workers after draining queued tasks. Run calls that
// lose the race report ClassShutdown. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.tasks)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Compile compiles (or finds) src in the program cache without
// executing it, returning its content address — the warm-up/pre-flight
// API behind vmd's /compile endpoint. It asks for the full build, and
// promotes a resident base unit: calling Compile is how a client says
// the program will be reused.
func (s *Service) Compile(src string) (key string, cacheHit bool, err error) {
	s.count(func(m *Snapshot) { m.Requests++ })
	key, _, hit, err := s.lookup(src, true)
	if err != nil {
		s.observeDone(ClassCompile)
		return "", false, classified(ClassCompile, err)
	}
	s.observeDone(ClassOK)
	return key, hit, nil
}

// Run compiles (or looks up) the request's program, queues it on the
// worker pool and waits for the result or ctx. All failures are
// *Error values; Classify recovers the class.
func (s *Service) Run(ctx context.Context, req Request) (*Response, error) {
	s.count(func(m *Snapshot) { m.Requests++ })
	// Callers that do not care pass nil; normalize it here so neither
	// the final select nor the worker's queued-cancellation check ever
	// sees a nil context.
	if ctx == nil {
		ctx = context.Background()
	}

	maxSteps := req.MaxSteps
	switch {
	case maxSteps == 0:
		maxSteps = s.cfg.DefaultMaxSteps
	case maxSteps < 0 || maxSteps > s.cfg.MaxStepCeiling:
		return s.fail(ClassBadRequest,
			fmt.Errorf("service: max steps %d out of range (0,%d]", maxSteps, s.cfg.MaxStepCeiling))
	}
	name := req.Engine
	if name == "" {
		name = DefaultEngine
	}
	eng, ok := s.engines[name]
	if !ok {
		return s.fail(ClassBadRequest,
			fmt.Errorf("service: unknown engine %q (want one of %v)", req.Engine, s.engineNames))
	}
	if req.Source == "" {
		return s.fail(ClassBadRequest, fmt.Errorf("service: empty source"))
	}
	if len(req.Args) > interp.DefaultStackCap {
		return s.fail(ClassBadRequest,
			fmt.Errorf("service: %d args exceed the %d-cell stack", len(req.Args), interp.DefaultStackCap))
	}
	if len(req.Inputs) > 0 {
		// A batch carries its inputs in Inputs, nothing in the
		// singleton fields: silently merging the two would make "which
		// execution got Args?" ambiguous.
		if len(req.Args) > 0 || len(req.Mem) > 0 {
			return s.fail(ClassBadRequest,
				fmt.Errorf("service: batch inputs are mutually exclusive with singleton args/mem"))
		}
		if len(req.Inputs) > s.cfg.MaxBatchInputs {
			return s.fail(ClassBadRequest,
				fmt.Errorf("service: %d batch inputs exceed the %d-input cap",
					len(req.Inputs), s.cfg.MaxBatchInputs))
		}
		for i, in := range req.Inputs {
			if len(in.Args) > interp.DefaultStackCap {
				return s.fail(ClassBadRequest,
					fmt.Errorf("service: input %d: %d args exceed the %d-cell stack",
						i, len(in.Args), interp.DefaultStackCap))
			}
		}
	}

	// Compile (or join an in-flight compile) before queueing, so the
	// bounded queue holds only ready-to-run work and compile storms
	// dedup at the cache, not in the pool.
	key, u, hit, err := s.lookup(req.Source, false)
	if err != nil {
		return s.fail(ClassCompile, err)
	}
	if len(req.Mem) > u.Prog.MemSize {
		return s.fail(ClassBadRequest,
			fmt.Errorf("service: %d-byte memory overlay exceeds the program's %d-byte memory",
				len(req.Mem), u.Prog.MemSize))
	}
	for i, in := range req.Inputs {
		if len(in.Mem) > u.Prog.MemSize {
			return s.fail(ClassBadRequest,
				fmt.Errorf("service: input %d: %d-byte memory overlay exceeds the program's %d-byte memory",
					i, len(in.Mem), u.Prog.MemSize))
		}
	}
	// Engines with a per-program compile step (static plans, AOT
	// closures) run it here for the same reason; the blob is filed on
	// the unit, so this is once per program, not per request.
	if p, ok := eng.(engine.Preparer); ok {
		if err := p.Prepare(u); err != nil {
			return s.fail(ClassCompile, err)
		}
	}

	t := &task{
		ctx:  ctx,
		key:  key,
		unit: u,
		eng:  eng,
		spec: interp.ExecSpec{
			MaxSteps: maxSteps,
			MaxOut:   s.cfg.MaxOutputBytes,
			Args:     req.Args,
			Mem:      req.Mem,
			Facts:    u.Facts(),
		},
		inputs: req.Inputs,
		done:   make(chan result, 1),
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return s.fail(ClassShutdown, fmt.Errorf("service: closed"))
	}
	select {
	case s.tasks <- t:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		return s.fail(ClassQueueFull,
			fmt.Errorf("service: queue full (%d queued)", s.cfg.QueueDepth))
	}

	return s.await(ctx, t, hit)
}

// await blocks on the task's result or the caller's context. It is
// the sole recorder of per-request completion, so completed-by-class
// sums to requests even when a canceled task is still executed by a
// worker.
func (s *Service) await(ctx context.Context, t *task, cacheHit bool) (*Response, error) {
	deliver := func(r result) (*Response, error) {
		s.observeDone(Classify(r.err))
		if r.resp != nil {
			r.resp.CacheHit = cacheHit
		}
		return r.resp, r.err
	}
	select {
	case r := <-t.done:
		return deliver(r)
	case <-ctx.Done():
		// Both the buffered done channel and ctx.Done() can be ready
		// at once (the execution finished just as the deadline hit),
		// and select picks between ready cases at random — so re-check
		// done before reporting cancellation, preferring the delivered
		// result: a finished execution must never be misreported as
		// ClassCanceled to the caller or the metrics.
		select {
		case r := <-t.done:
			return deliver(r)
		default:
		}
		// The worker will observe the canceled context and drop the
		// task; the buffered done channel lets it finish either way.
		return s.fail(ClassCanceled, ctx.Err())
	}
}

// fail records a finished request of the given class and returns the
// classified error.
func (s *Service) fail(class ErrorClass, err error) (*Response, error) {
	s.observeDone(class)
	return nil, classified(class, err)
}

// worker drains the task queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		// Run normalizes nil contexts at entry, so t.ctx is never nil.
		if t.ctx.Err() != nil {
			t.done <- result{err: classified(ClassCanceled, t.ctx.Err())}
			continue
		}
		start := time.Now()
		var resp *Response
		var err error
		if t.inputs != nil {
			resp = s.executeBatch(t)
		} else {
			resp, err = s.execute(t)
		}
		s.observeExec(t, resp, time.Since(start))
		// Before the result is delivered, so the client's next lookup
		// sees these steps and the promotion point repeats.
		t.unit.AddSteps(resp.Steps)
		if err != nil {
			err = toError(err)
		}
		t.done <- result{resp: resp, err: err}
	}
}

// toError wraps err in a classified *Error; errors that already carry
// a class pass through unchanged.
func toError(err error) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	return classified(Classify(err), err)
}

// maxRetainedMemBytes bounds the data-memory allocation a machine may
// keep while pooled; one program with a huge allot must not pin its
// memory for the daemon's lifetime.
const maxRetainedMemBytes = 1 << 20

// recycle returns a machine to the pool unless its output buffer or
// data memory grew past the retention caps, in which case it is
// dropped — one pathological request cannot pin large allocations in
// the pool.
func (s *Service) recycle(m *interp.Machine) {
	if m.Out.Cap() <= s.cfg.MaxOutputBytes && cap(m.Mem) <= maxRetainedMemBytes {
		s.machines.Put(m)
	}
}

// runInput executes one input set on m under the task's engine and
// captures its observable outcome, clamped to the response budgets.
// Rebind fully re-initializes the machine first — stacks, memory,
// steps, output — so back-to-back inputs on one machine (a batch, or
// consecutive pooled requests) are exactly as isolated as runs on
// fresh machines.
func (s *Service) runInput(m *interp.Machine, t *task, spec interp.ExecSpec) InputResult {
	m.Rebind(t.unit.Prog)
	if err := m.ApplySpec(spec); err != nil {
		// Unreachable after Run's validation; classify defensively.
		return InputResult{Err: classified(ClassBadRequest, err)}
	}

	err := t.eng.Run(m)

	// The engines' output check fires after the write that crossed the
	// budget, so the buffer can overshoot by one instruction's worth;
	// clamp what we ship so MaxOutputBytes is a hard cap on responses.
	out := m.Out.Bytes()
	if len(out) > s.cfg.MaxOutputBytes {
		out = out[:s.cfg.MaxOutputBytes]
	}
	// Same clamp for the final stack: MaxStackCells is a hard cap on
	// the cells a response carries, and crossing it on an otherwise
	// clean halt is a limit error, exactly like the output budget.
	shipped := m.SP
	if shipped > s.cfg.MaxStackCells {
		shipped = s.cfg.MaxStackCells
	}
	if err == nil && m.SP > s.cfg.MaxStackCells {
		err = classified(ClassLimit,
			fmt.Errorf("service: final stack depth %d exceeds the %d-cell response cap",
				m.SP, s.cfg.MaxStackCells))
	}
	r := InputResult{
		Output:     string(out),
		Stack:      append([]vm.Cell(nil), m.Stack[:shipped]...),
		StackDepth: m.SP,
		Steps:      m.Steps,
	}
	if err != nil {
		r.Err = toError(err)
	}
	return r
}

// execute runs one singleton task on a pooled machine.
func (s *Service) execute(t *task) (*Response, error) {
	m := s.machines.Get().(*interp.Machine)
	defer s.recycle(m)
	r := s.runInput(m, t, t.spec)
	resp := &Response{
		Key:        t.key,
		Engine:     t.eng.Name(),
		Output:     r.Output,
		Stack:      r.Stack,
		StackDepth: r.StackDepth,
		Steps:      r.Steps,
		Analysis:   t.spec.Facts.Outcome(),
		Quickened:  t.unit.Quickened,
		Optimized:  t.unit.Optimized,
	}
	resp.StepsAccounting, resp.SourceSteps = stepsAccounting(t.unit.Optimized, r.Steps)
	if r.Err != nil {
		// A failed execution still returns the partial response for
		// diagnosis.
		return resp, r.Err
	}
	return resp, nil
}

// executeBatch runs every input of a batch task on one pooled machine,
// re-seeded per input (Rebind + ApplySpec). Inputs are isolated: a
// failing input records its classified error in its own result and the
// rest of the batch still runs, so the batch itself never fails after
// dispatch — per-input errors are data, not control flow.
func (s *Service) executeBatch(t *task) *Response {
	m := s.machines.Get().(*interp.Machine)
	defer s.recycle(m)
	resp := &Response{
		Key:       t.key,
		Engine:    t.eng.Name(),
		Analysis:  t.spec.Facts.Outcome(),
		Quickened: t.unit.Quickened,
		Optimized: t.unit.Optimized,
		Results:   make([]InputResult, len(t.inputs)),
	}
	for i, in := range t.inputs {
		spec := t.spec
		spec.Args, spec.Mem = in.Args, in.Mem
		r := s.runInput(m, t, spec)
		resp.Results[i] = r
		resp.Steps += r.Steps
	}
	resp.StepsAccounting, resp.SourceSteps = stepsAccounting(t.unit.Optimized, resp.Steps)
	return resp
}

// stepsAccounting implements the response's step-accounting contract:
// unoptimized executions count source-program steps (SourceSteps ==
// Steps); optimized executions count the rewrite's steps and the
// source count is unknown (0).
func stepsAccounting(optimized bool, steps int64) (string, int64) {
	if optimized {
		return "optimized", 0
	}
	return "source", steps
}
