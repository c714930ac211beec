// Command vmd is the stdlib-only HTTP/JSON front end of the
// internal/service execution layer: a compile-once/execute-many
// virtual machine daemon serving every engine in the repository.
//
// Usage:
//
//	vmd -addr :8080 -workers 8 -queue 64 -cache 256 -cachedir /var/cache/vmd
//
// Endpoints:
//
//	POST /run      {"source": ": main + . ;", "engine": "static", "args": [30, 12], "max_steps": 100000}
//	POST /run      {"source": ": main + . ;", "inputs": [{"args": [1, 2]}, {"args": [40, 2]}]}   # batch
//	POST /compile  {"source": ": main 1 2 + . ;"}   # full build, for a program that will be reused
//	GET  /engines  # registered engines with their contract traits
//	GET  /stats    # metrics snapshot (JSON)
//	GET  /metrics  # the same snapshot in Prometheus text format
//	GET  /healthz  # liveness
//
// The engine set is whatever the engine registry holds (-h lists it;
// default switch). "args" seeds the program's initial data stack and
// "mem" (base64 bytes in JSON) overlays its data memory, so one cached
// program serves many computations — the cache key covers only the
// source. "inputs" batches many argument/memory sets into one request:
// the program runs once per input on a single worker pass, and the
// response carries per-input "results" (each with its own output,
// stack, steps and error class — one failing input does not fail the
// batch). Batch size is capped by -maxbatch. A program /run has never
// seen gets a base build: compiled, verified and analyzed. It gets the
// full build once it has run 2^16 source steps, or when a client posts
// it to /compile. With -quicken (the default) the full build rewrites
// the program to profile-mined superinstructions ("quickened": true in
// responses) — see the -h text for how -super and -quicken compose.
// With -optimize (also the default) the full build additionally runs
// the static optimizer, and the rewrite is served only after the
// translation validator proves it observably equivalent ("optimized":
// true; "steps_accounting" says which instruction stream "steps"
// counted). Errors come back as JSON
// with a stable "class" drawn from the service's error vocabulary,
// mapped onto HTTP status codes (400 bad_request/compile, 422
// runtime/limit, 429 queue_full, 503 shutdown, 504 canceled).
//
// A /run or /compile body is one JSON object; anything but whitespace
// after it is a 400 bad_request. Canonical bodies (the keys above
// without "mem", spelled exactly and given once, integer args) are
// parsed directly in one pass, and the rest go through encoding/json,
// which gives the same request or the same error for any body. The
// /run success body is written as encoding/json writes it, byte for
// byte (wire.go).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"stackcache/internal/engine"
	"stackcache/internal/forth"
	"stackcache/internal/service"
)

// maxBodyBytes bounds request bodies; programs are source text, not
// uploads.
const maxBodyBytes = 1 << 20

type compileResponse struct {
	Key      string `json:"key"`
	CacheHit bool   `json:"cache_hit"`
}

type errorResponse struct {
	Class string `json:"class"`
	Error string `json:"error"`
}

// statusFor maps error classes onto HTTP status codes. Limit errors
// are 422, not 504: an exhausted step/output/stack budget is the
// request's own doing (the program was executed and judged), not a
// timeout in the serving path — 504 is reserved for requests whose
// context was canceled or expired before a verdict.
func statusFor(class service.ErrorClass) int {
	switch class {
	case service.ClassOK:
		return http.StatusOK
	case service.ClassBadRequest, service.ClassCompile:
		return http.StatusBadRequest
	case service.ClassRuntime, service.ClassLimit:
		return http.StatusUnprocessableEntity
	case service.ClassQueueFull:
		return http.StatusTooManyRequests
	case service.ClassCanceled:
		return http.StatusGatewayTimeout
	case service.ClassShutdown:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

type server struct {
	svc *service.Service
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("vmd: encode response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, err error) {
	class := service.Classify(err)
	writeJSON(w, statusFor(class), errorResponse{Class: class.String(), Error: err.Error()})
}

// decode reads a POST body into req through c (wire.go), answering
// anything else with 405 and a body that does not decode with 400.
func decode(w http.ResponseWriter, r *http.Request, c *wire, req *service.Request) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed,
			errorResponse{Class: service.ClassBadRequest.String(), Error: "POST only"})
		return false
	}
	if err := c.decodeBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), req); err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Class: service.ClassBadRequest.String(), Error: "bad JSON: " + err.Error()})
		return false
	}
	return true
}

// handleRun decodes the body straight into a service.Request and
// encodes the service.Response with its batch results, in one write.
// A batch that was executed is 200 whatever its inputs did: per-input
// failures are results, reported input by input.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	c := wires.Get().(*wire)
	defer c.release()
	var req service.Request
	if !decode(w, r, c, &req) {
		return
	}
	resp, err := s.svc.Run(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	c.buf = appendRunResponse(c.buf[:0], resp)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(c.buf)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(c.buf); err != nil {
		log.Printf("vmd: write response: %v", err)
	}
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	c := wires.Get().(*wire)
	defer c.release()
	var req service.Request
	if !decode(w, r, c, &req) {
		return
	}
	key, hit, err := s.svc.Compile(req.Source)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, compileResponse{Key: key, CacheHit: hit})
}

// engineInfo is one row of the /engines listing: the wire name plus
// the contract traits differential clients key on.
type engineInfo struct {
	Name        string `json:"name"`
	Exact       bool   `json:"exact"`
	NeedsVerify bool   `json:"needs_verify"`
}

// handleEngines lists the registry in its canonical order (switch
// baseline first, rest alphabetical), so clients can discover the
// valid /run "engine" values and which of them promise bit-identical
// results to the baseline.
func (s *server) handleEngines(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed,
			errorResponse{Class: service.ClassBadRequest.String(), Error: "GET only"})
		return
	}
	out := make([]engineInfo, 0, 16)
	for _, e := range engine.All() {
		tr := engine.TraitsOf(e)
		out = append(out, engineInfo{Name: e.Name(), Exact: tr.Exact, NeedsVerify: tr.NeedsVerify})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Stats())
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := service.WritePrometheus(w, s.svc.Stats()); err != nil {
		log.Printf("vmd: write metrics: %v", err)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "executor goroutines (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "submission queue depth (0 = 4x workers)")
		cache    = flag.Int("cache", 256, "program cache entries")
		maxSteps = flag.Int64("maxsteps", 1<<24, "default per-request step budget")
		ceiling  = flag.Int64("ceiling", 1<<30, "largest step budget a request may ask for")
		maxOut   = flag.Int("maxout", 1<<20, "per-request output budget in bytes")
		maxStack = flag.Int("maxstack", 1024, "largest final stack a response may carry, in cells")
		maxBatch = flag.Int("maxbatch", 64, "largest number of inputs a batch /run may carry")
		superins = flag.Bool("super", false, "compile with superinstruction fusion")
		quicken  = flag.Bool("quicken", true, "quicken programs to profile-mined superinstructions in their full build (after /compile or 2^16 source steps)")
		optimize = flag.Bool("optimize", true, "optimize programs in their full build (after /compile or 2^16 source steps), serving only validator-certified rewrites")
		cacheDir = flag.String("cachedir", "", "persist compiled artifacts to this directory (warm restarts)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of vmd:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nEngines (POST /run \"engine\" field): %v\n", engine.Names())
		fmt.Fprintf(flag.CommandLine.Output(), `
Base and full builds: a program /run has never seen is compiled,
verified and analyzed only (the base build). It gets the full build,
which adds -optimize, -quicken and -cachedir, once it has executed
2^16 source steps or when a client posts it to /compile. Promotions
show as vmd_artifact_total{stage="unit",outcome="promoted"}.

Superinstruction flags compose; both leave observable behavior (output,
stack, step counts, error classes) identical to plain execution:

  -super    front-end peephole: "literal +" compiles to the standalone
            lit-add opcode and the program shrinks. Changes the cache
            key (it is a compile option).
  -quicken  full-build rewrite: verified programs are re-written in
            place to profile-mined superinstructions (vm.Fusions),
            then re-verified. The two passes share one fusion table,
            so a pair the peephole consumed is gone before quickening
            and nothing fuses twice. Responses report
            "quickened": true; /metrics exposes
            vmd_quickened_programs_total and vmd_quickened_ops_total.
  -optimize full-build proof-carrying optimization: verified,
            depth-proved programs are rewritten (constant folding,
            branch folding, inlining, peepholes, dead-code
            elimination) and the rewrite is served ONLY when the
            independent translation validator (vm.CheckTranslation)
            proves it observably equivalent — same output, final
            stack, memory writes and error class at every budget, in
            no more steps. Refused or unprovable programs are served
            unoptimized. Responses report "optimized" plus
            "steps_accounting"/"source_steps" (the step-accounting
            contract); /metrics exposes vmd_optimized_programs_total,
            vmd_optimized_ops_total{pass=...} and
            vmd_artifact_total{stage="optimize",outcome="refused"}.

Persistence:

  -cachedir writes every full build (quickened bytecode plus its
            analysis facts, checksummed) to the named directory and
            reads it back on later runs: a restarted vmd serves a
            previously-seen program without re-compiling, re-verifying
            or re-analyzing it. Base builds are never written. Entries
            are keyed by source hash and a policy fingerprint (compile
            options + -quicken + -optimize), so a directory is shared
            safely between processes only when those agree; corrupt or
            mismatched entries are recomputed, never trusted. /metrics reports the tiers under
            vmd_artifact_total{stage,outcome} ("disk_hit" counts warm
            starts).
`)
	}
	flag.Parse()

	svc, err := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cache,
		DefaultMaxSteps: *maxSteps,
		MaxStepCeiling:  *ceiling,
		MaxOutputBytes:  *maxOut,
		MaxStackCells:   *maxStack,
		MaxBatchInputs:  *maxBatch,
		CompileOptions:  forth.Options{Superinstructions: *superins},
		Quicken:         *quicken,
		Optimize:        *optimize,
		CacheDir:        *cacheDir,
	})
	if err != nil {
		log.Fatalf("vmd: %v", err)
	}

	s := &server{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/engines", s.handleEngines)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("vmd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("vmd: shutdown: %v", err)
		}
		svc.Close()
	}()

	log.Printf("vmd: serving on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("vmd: %v", err)
	}
	<-done
}
