package main

// The traced run replays a workload's seed in three passes and derives
// the per-layer metrics from spans recorded by this file around the
// public functions of each layer, from outside the code under test:
//
//  1. HTTP: a fresh vmd serves a fixed number of stream requests, and
//     every other request gets a client span. The traced requests'
//     median latency against the untraced ones' is the tracing
//     overhead.
//  2. In-process: a service.Service configured like vmd's defaults
//     replays the traced segment with spans around service.CacheKey,
//     Service.Run and, on the served program, machine reset plus
//     engine.Run. Differences between layers are taken per request id.
//  3. Pipeline and engines: the workload's fixed programs go through
//     artifact.Store.GetOrBuild with and without a disk directory, the
//     pipeline stages are replayed one by one in the store's order, and
//     a fresh store loads them from disk. Every registry engine runs the
//     four paper programs in served form, counting engines under
//     core.DefaultCost too.
//
// Every per-layer metric is emitted for every workload, measured on that
// workload's own requests and programs, the engines' on the paper
// programs. Spans stay in memory and are written to .bench_build/traces
// when the run ends. Exact counts (cache counters, response bytes,
// steps, model cycles) must repeat: within a run across engine passes,
// and across runs of one seed on one source tree in a checkout.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stackcache/internal/artifact"
	"stackcache/internal/core"
	"stackcache/internal/engine"
	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/service"
	"stackcache/internal/vm"
)

// maxEnginePasses bounds the engine passes of one pass-3 round, so that
// pipeline rounds and engine passes share the run's time.
const maxEnginePasses = 4

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Req    int    `json:"req"`    // request id; in pass 3 a fixed program or an engine pass
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

func (t *tracer) dur(i int) time.Duration { return time.Duration(t.spans[i].End - t.spans[i].Start) }

// byReq sums the durations of the spans named name per request id.
func (t *tracer) byReq(name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for i, s := range t.spans {
		if s.Name == name {
			out[s.Req] += t.dur(i)
		}
	}
	return out
}

// medianOf returns the median of f over the values of m, in the unit f
// converts to; 0 when m is empty (the layer did no such work).
func medianOf[K comparable, V any](m map[K]V, f func(V) float64) float64 {
	if len(m) == 0 {
		return 0
	}
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, f(v))
	}
	return median(xs)
}

// vmdConfig is vmd's default configuration (its flag defaults) without a
// cache directory, as the timed loops of every workload run it.
func vmdConfig() service.Config {
	return service.Config{
		CacheSize:       vmdCacheEntries,
		DefaultMaxSteps: 1 << 24,
		MaxStepCeiling:  1 << 30,
		MaxOutputBytes:  1 << 20,
		MaxStackCells:   1024,
		MaxBatchInputs:  64,
		Quicken:         true,
		Optimize:        true,
	}
}

// storeConfig is the artifact-store configuration vmd's program cache
// builds for vmdConfig.
func storeConfig(dir string) artifact.Config {
	return artifact.Config{
		MaxUnits: vmdCacheEntries, Dir: dir, Quicken: true, Optimize: true,
		Fingerprint: "quicken=true,optimize=true",
	}
}

func storeKey(src string) string { return "src:" + service.CacheKey(src, forth.Options{}) }

func (r *run) traced() (map[string]metric, error) {
	s, err := r.w.stream(r.seed)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	m := map[string]metric{}
	exact := map[string]int64{}
	deadline := time.Now().Add(r.seconds)

	segment, err := r.httpPass(s, tr, m, exact)
	if err != nil {
		return nil, err
	}
	if err := r.servicePass(s, segment, tr, m); err != nil {
		return nil, err
	}
	// The engines run the four paper programs on every workload: their
	// cost per executed instruction is the paper's own measure.
	suite, err := paperStream(r.seed)
	if err != nil {
		return nil, err
	}
	// Pass 3 repeats until the run's time is spent, each round on fresh
	// stores and units, so that every run measures for its seconds.
	tally := &layerTally{nsPerInst: map[string][]float64{}, cycles: map[string]float64{}}
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if err := r.pipelinePass(s, tr, round, tally); err != nil {
			return nil, err
		}
		r.enginePass(suite.programs, tr, round, exact, tally, deadline)
	}
	tally.metrics(tr, m, exact)
	r.prov["rounds"] = tally.rounds
	r.prov["engine_passes"] = len(tally.nsPerInst[service.DefaultEngine])
	r.checkExact(exact)

	dir := filepath.Join(r.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", r.w.name, r.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	r.prov["trace_file"] = path
	r.prov["spans"] = len(tr.spans)
	return m, nil
}

// httpPass is pass 1. It returns the request ids of the traced segment.
func (r *run) httpPass(s *stream, tr *tracer, m map[string]metric, exact map[string]int64) ([]int, error) {
	n := r.w.traced
	dir, err := r.cacheDir(s, 0)
	if err != nil {
		return nil, err
	}
	d, err := r.setUp(s, dir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	var before, after stats
	if err := d.getJSON("/stats", &before); err != nil {
		return nil, d.failure(err)
	}
	res, err := r.loop(d, s, 0, 2*n, 0, tr)
	if err != nil {
		return nil, err
	}
	if err := d.getJSON("/stats", &after); err != nil {
		return nil, d.failure(err)
	}
	r.selfCheck(before, after, 2*n)

	var ids []int
	var bytes int64
	var plain, traced []float64
	for i, id := range res.ids {
		if !tracedID(id) {
			plain = append(plain, res.lat[i])
			continue
		}
		traced = append(traced, res.lat[i])
		ids = append(ids, id)
		bytes += int64(res.bytes[i])
	}
	r.prov["tracing_overhead"] = percentile(traced, 0.5)/percentile(plain, 0.5) - 1
	m["vmd.resp_bytes"] = metric{float64(bytes) / float64(n), "bytes"}
	m["service.cache_hits"] = metric{float64(after.CacheHits), "count"}
	m["service.cache_misses"] = metric{float64(after.CacheMisses), "count"}
	m["service.cache_evictions"] = metric{float64(after.CacheEvictions), "count"}
	exact["vmd.resp_bytes_total"] = bytes
	exact["service.cache_hits"] = after.CacheHits
	exact["service.cache_misses"] = after.CacheMisses
	exact["service.cache_evictions"] = after.CacheEvictions
	return ids, nil
}

// tracedID selects the requests of the HTTP pass that get spans.
func tracedID(id int) bool { return id%2 == 1 }

// servicePass is pass 2: the traced segment replayed in process.
func (r *run) servicePass(s *stream, ids []int, tr *tracer, m map[string]metric) error {
	svc, err := service.New(vmdConfig())
	if err != nil {
		return err
	}
	defer svc.Close()
	for _, p := range s.programs {
		if r.w.fresh {
			break
		}
		if _, _, err := svc.Compile(p.src); err != nil {
			return fmt.Errorf("in-process set-up %s: %w", p.name, err)
		}
	}
	// The served form of each program, built by a store configured like
	// the service's, for the engine spans.
	served := artifact.NewStore(storeConfig(""))
	eng, ok := engine.Lookup(service.DefaultEngine)
	if !ok {
		return fmt.Errorf("default engine %q not registered", service.DefaultEngine)
	}
	mach := new(interp.Machine)
	ctx := context.Background()
	exec := func(u *artifact.Unit, args []int64) error {
		mach.Rebind(u.Prog)
		if err := mach.ApplySpec(interp.ExecSpec{MaxSteps: 1 << 24, MaxOut: 1 << 20, Args: args, Facts: u.Facts()}); err != nil {
			return err
		}
		return eng.Run(mach)
	}
	run := func(name string, q *request, root int) error {
		sreq := service.Request{Source: q.src, Args: q.args}
		for _, a := range q.batch {
			sreq.Inputs = append(sreq.Inputs, service.Input{Args: a})
		}
		k := tr.begin("service.CacheKey", root, q.id)
		service.CacheKey(q.src, forth.Options{})
		tr.end(k)
		sp := tr.begin(name, root, q.id)
		resp, err := svc.Run(ctx, sreq)
		tr.end(sp)
		r.attempted++
		if err == nil {
			err = compare(serviceReply(resp), q)
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "vmbench: in-process request %d failed: %v\n", q.id, err)
		}
		u, _, err := served.GetOrBuild(storeKey(q.src), func() (*vm.Program, error) {
			return forth.CompileWithOptions(q.src, forth.Options{})
		})
		if err != nil {
			return err
		}
		ex := tr.begin("engine.exec", root, q.id)
		inputs := q.batch
		if inputs == nil {
			inputs = [][]int64{q.args}
		}
		for _, a := range inputs {
			if err := exec(u, a); err != nil {
				return fmt.Errorf("request %d on %s: %w", q.id, eng.Name(), err)
			}
		}
		tr.end(ex)
		return nil
	}
	singles := map[int]bool{}
	batchInputs := map[int]int{} // inputs per batch request
	for _, id := range ids {
		q, err := s.request(id)
		if err != nil {
			return err
		}
		singles[id] = !q.isBatch()
		if q.isBatch() {
			batchInputs[id] = len(q.batch)
		}
		root := tr.begin("request", -1, id)
		if err := run("service.Run", q, root); err != nil {
			return err
		}
		tr.end(root)
	}
	runs := tr.byReq("service.Run")
	// The per-input cost of the service's batch loop comes from the
	// segment's own batches. A stream without batches gets one per fixed
	// program, each input the program's set-up args.
	perInput := map[int]time.Duration{}
	for id, n := range batchInputs {
		perInput[id] = runs[id] / time.Duration(n)
	}
	if len(batchInputs) == 0 {
		for k, p := range s.programs {
			inputs := make([][]int64, tinyBatch)
			want := make([]result, tinyBatch)
			for i := range inputs {
				inputs[i], want[i] = p.args, p.want
			}
			q := newRequest(-1-k, p.src, nil, inputs, want)
			root := tr.begin("batch", -1, q.id)
			if err := run("service.Run.batch", q, root); err != nil {
				return err
			}
			tr.end(root)
		}
		for id, d := range tr.byReq("service.Run.batch") {
			perInput[id] = d / tinyBatch
		}
	}

	httpLat := tr.byReq("vmd.run")
	execs := tr.byReq("engine.exec")
	vmdSelf := map[int]time.Duration{}
	svcSelf := map[int]time.Duration{}
	singleExec := map[int]time.Duration{}
	for id, d := range runs {
		vmdSelf[id] = httpLat[id] - d
		svcSelf[id] = d - execs[id]
		if singles[id] {
			singleExec[id] = execs[id]
		}
	}
	m["vmd.self_ms"] = metric{medianOf(vmdSelf, ms), "ms"}
	m["service.run_ms"] = metric{medianOf(runs, ms), "ms"}
	m["service.self_us"] = metric{medianOf(svcSelf, us), "us"}
	m["service.batch_input_us"] = metric{medianOf(perInput, us), "us"}
	m["service.cache_key_us"] = metric{medianOf(tr.byReq("service.CacheKey"), us), "us"}
	m["engine."+service.DefaultEngine+".run_us"] = metric{medianOf(singleExec, us), "us"}
	return nil
}

// serviceReply converts an in-process response to the wire reply shape
// the checks compare.
func serviceReply(resp *service.Response) reply {
	rp := reply{Output: resp.Output, Stack: resp.Stack}
	for _, ir := range resp.Results {
		rp.Results = append(rp.Results, inputResult{Output: ir.Output, Stack: ir.Stack, Class: ir.Class().String()})
	}
	return rp
}

// layerTally accumulates pass 3 over its rounds. In round i, pipeline
// and Prepare spans carry id i*len(programs)+k for fixed program k, and
// engine spans id i*maxEnginePasses+pass.
type layerTally struct {
	rounds                   int
	offered, adopted, proved int
	nsPerInst                map[string][]float64 // per engine, one value per engine pass
	cycles                   map[string]float64   // per counting engine
}

// pipelinePass is the artifact half of pass 3.
func (r *run) pipelinePass(s *stream, tr *tracer, round int, tally *layerTally) error {
	tally.rounds++
	dir := filepath.Join(r.dir, fmt.Sprintf("pipeline%d", round))
	withDir, noDir := artifact.NewStore(storeConfig(dir)), artifact.NewStore(storeConfig(""))
	for i, p := range s.programs {
		k := round*len(s.programs) + i
		produce := func(parent int) func() (*vm.Program, error) {
			return func() (*vm.Program, error) {
				c := tr.begin("forth.CompileWithOptions", parent, k)
				defer tr.end(c)
				return forth.CompileWithOptions(p.src, forth.Options{})
			}
		}
		for _, st := range []struct {
			name  string
			store *artifact.Store
		}{{"artifact.GetOrBuild", withDir}, {"artifact.GetOrBuild.nodir", noDir}} {
			sp := tr.begin(st.name, -1, k)
			u, outcome, err := st.store.GetOrBuild(storeKey(p.src), produce(sp))
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s %s: %w", st.name, p.name, err)
			}
			if outcome != artifact.Miss {
				r.problem("%s %s: outcome %v, want a miss", st.name, p.name, outcome)
			}
			if st.store == withDir && u.Facts().Proved {
				tally.proved++
			}
		}

		// The stages one by one, in the store's order.
		root := tr.begin("stages", -1, k)
		timed := func(name string, f func()) {
			i := tr.begin(name, root, k)
			f()
			tr.end(i)
		}
		var prog *vm.Program
		var err error
		timed("forth.CompileWithOptions", func() { prog, err = forth.CompileWithOptions(p.src, forth.Options{}) })
		if err == nil {
			timed("vm.Verify", func() { err = vm.Verify(prog) })
		}
		if err != nil {
			return fmt.Errorf("stages of %s: %w", p.name, err)
		}
		var opt *vm.OptResult
		timed("vm.Optimize", func() { opt = vm.Optimize(prog) })
		tally.offered++
		if opt.Changed {
			timed("vm.CheckTranslation", func() { err = vm.CheckTranslation(prog, opt.Prog) })
			if err == nil {
				tally.adopted++
				prog = opt.Prog
			}
		}
		var quick *vm.Program
		var sites int
		timed("vm.Quicken", func() { quick, sites = vm.Quicken(prog) })
		if sites > 0 {
			timed("vm.Verify", func() { err = vm.Verify(quick) })
			if err != nil {
				return fmt.Errorf("stages of %s: quickened: %w", p.name, err)
			}
			prog = quick
		}
		timed("vm.Analyze", func() { vm.Analyze(prog) })
		tr.end(root)
	}

	// A fresh store over the filled directory: every load is a disk hit.
	fresh := artifact.NewStore(storeConfig(dir))
	for i, p := range s.programs {
		sp := tr.begin("artifact.GetOrBuild.disk", -1, round*len(s.programs)+i)
		_, outcome, err := fresh.GetOrBuild(storeKey(p.src), func() (*vm.Program, error) {
			return nil, fmt.Errorf("disk tier missed %s", p.name)
		})
		tr.end(sp)
		if err != nil || outcome != artifact.DiskHit {
			r.problem("disk load of %s: outcome %v, %v", p.name, outcome, err)
		}
	}
	return nil
}

// enginePass is the engine half of pass 3: Prepare for every Preparer,
// then passes of every registry engine over progs in served form until
// the run's time is spent (at least two, at most maxEnginePasses), and
// the counting engines' model cycles in the first two passes.
func (r *run) enginePass(progs []fixedProgram, tr *tracer, round int, exact map[string]int64, tally *layerTally, deadline time.Time) {
	names := engine.Names()
	base := round * len(progs)
	units := make([]*artifact.Unit, len(progs))
	for k, p := range progs {
		// One store per program keeps every unit fresh for Prepare.
		u, _, err := artifact.NewStore(storeConfig("")).GetOrBuild(storeKey(p.src), func() (*vm.Program, error) {
			return forth.CompileWithOptions(p.src, forth.Options{})
		})
		if err != nil {
			r.problem("served form of %s: %v", p.name, err)
			return
		}
		units[k] = u
	}
	for _, name := range names {
		e, _ := engine.Lookup(name)
		pr, ok := e.(engine.Preparer)
		if !ok {
			continue
		}
		for k, u := range units {
			sp := tr.begin("engine.Prepare:"+name, -1, base+k)
			err := pr.Prepare(u)
			tr.end(sp)
			if err != nil {
				r.problem("%s: Prepare %s: %v", name, progs[k].name, err)
			}
		}
	}

	// One machine per program, reset before a pass starts, so that an
	// engine's span covers its Run calls only.
	machs := make([]*interp.Machine, len(units))
	for k := range machs {
		machs[k] = new(interp.Machine)
	}
	reset := func() {
		for k, m := range machs {
			m.Rebind(units[k].Prog)
			_ = m.ApplySpec(interp.ExecSpec{MaxSteps: 1 << 24, MaxOut: 1 << 20, Args: progs[k].args, Facts: units[k].Facts()})
		}
	}
	errs := make([]error, len(machs))
	verdicts := func(name string) {
		for k, m := range machs {
			r.attempted++
			err, want := errs[k], progs[k].want
			if err == nil && (m.Out.String() != want.Output || !sameStack(m.Stack[:m.SP], want.Stack)) {
				err = errMismatch
			}
			if err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "vmbench: engine %s on %s: %v\n", name, progs[k].name, err)
			}
		}
	}
	for pass := 0; pass < 2 || pass < maxEnginePasses && time.Now().Before(deadline); pass++ {
		id := round*maxEnginePasses + pass
		for _, name := range names {
			e, _ := engine.Lookup(name)
			reset()
			sp := tr.begin("engine.Run:"+name, -1, id)
			for k, m := range machs {
				errs[k] = e.Run(m)
			}
			tr.end(sp)
			verdicts(name)
			var steps int64
			for _, m := range machs {
				steps += m.Steps
			}
			tally.nsPerInst[name] = append(tally.nsPerInst[name], float64(tr.dur(sp).Nanoseconds())/float64(steps))
			r.sameCount(exact, "steps."+name, steps)
			if engine.TraitsOf(e).Exact {
				r.sameCount(exact, "engine.steps", steps)
			}
			ce, ok := e.(engine.CountingEngine)
			if !ok || pass >= 2 {
				continue
			}
			var total core.Counters
			reset()
			sp = tr.begin("engine.RunCounted:"+name, -1, id)
			for k, m := range machs {
				var c core.Counters
				c, errs[k] = ce.RunCounted(m)
				total.Add(c)
			}
			tr.end(sp)
			verdicts(name)
			cyc := total.TotalCycles(core.DefaultCost)
			r.sameCount(exact, "cycles."+name, int64(cyc))
			tally.cycles[name] = total.PerInstruction(cyc)
		}
	}
}

// metrics derives the pass-3 per-layer metrics from the spans of all
// rounds.
func (tally *layerTally) metrics(tr *tracer, m map[string]metric, exact map[string]int64) {
	miss, nodir := tr.byReq("artifact.GetOrBuild"), tr.byReq("artifact.GetOrBuild.nodir")
	stages := tr.byReq("stages")
	persist, self := map[int]time.Duration{}, map[int]time.Duration{}
	for k := range miss {
		persist[k] = miss[k] - nodir[k]
		self[k] = nodir[k] - stages[k]
	}
	stageOf := func(name string) map[int]time.Duration {
		out := map[int]time.Duration{}
		for i, sp := range tr.spans {
			if sp.Name == name && sp.Parent >= 0 && tr.spans[sp.Parent].Name == "stages" {
				out[sp.Req] += tr.dur(i)
			}
		}
		return out
	}
	m["artifact.miss_ms"] = metric{medianOf(miss, ms), "ms"}
	m["artifact.persist_ms"] = metric{medianOf(persist, ms), "ms"}
	m["artifact.self_ms"] = metric{medianOf(self, ms), "ms"}
	m["artifact.disk_hit_ms"] = metric{medianOf(tr.byReq("artifact.GetOrBuild.disk"), ms), "ms"}
	m["forth.compile_ms"] = metric{medianOf(stageOf("forth.CompileWithOptions"), ms), "ms"}
	m["vm.verify_us"] = metric{medianOf(stageOf("vm.Verify"), us), "us"}
	m["vm.optimize_ms"] = metric{medianOf(stageOf("vm.Optimize"), ms), "ms"}
	m["vm.checktrans_ms"] = metric{medianOf(stageOf("vm.CheckTranslation"), ms), "ms"}
	m["vm.quicken_us"] = metric{medianOf(stageOf("vm.Quicken"), us), "us"}
	m["vm.analyze_ms"] = metric{medianOf(stageOf("vm.Analyze"), ms), "ms"}
	m["vm.optimize_adopted_ratio"] = metric{float64(tally.adopted) / float64(tally.offered), "ratio"}
	m["vm.proved_ratio"] = metric{float64(tally.proved) / float64(tally.offered), "ratio"}

	for _, name := range engine.Names() {
		if prep := tr.byReq("engine.Prepare:" + name); len(prep) > 0 {
			m["engine."+name+".prepare_ms"] = metric{medianOf(prep, ms), "ms"}
		}
	}
	for name, xs := range tally.nsPerInst {
		m["engine."+name+".ns_per_inst"] = metric{median(xs), "ns"}
	}
	for name, c := range tally.cycles {
		m["core."+name+".cycles_per_inst"] = metric{c, "cycles"}
	}
	m["engine.steps"] = metric{float64(exact["engine.steps"]), "count"}
}

// sameCount records an exact count, or reports nondeterminism when an
// earlier measurement in this run disagrees.
func (r *run) sameCount(exact map[string]int64, key string, v int64) {
	if old, ok := exact[key]; ok && old != v {
		r.problem("nondeterminism: %s was %d, now %d", key, old, v)
		return
	}
	exact[key] = v
}

// checkExact compares this run's exact counts with the first traced run
// of the same workload and seed on the same source tree in this
// checkout. The key holds the source digest, so a change to the code
// under test that moves a count starts a new record instead of failing.
func (r *run) checkExact(exact map[string]int64) {
	dir := filepath.Join(r.root, ".bench_build", "exact")
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", r.w.name, r.seed, r.digest))
	if b, err := os.ReadFile(path); err == nil {
		var old map[string]int64
		if err := json.Unmarshal(b, &old); err != nil {
			r.problem("exact counts file %s: %v", path, err)
			return
		}
		for k, v := range exact {
			if ov, ok := old[k]; !ok || ov != v {
				r.problem("nondeterminism: %s is %d, an earlier run of this seed had %d", k, v, ov)
			}
		}
		return
	}
	b, _ := json.Marshal(exact)
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmbench: exact counts not saved:", err)
	}
}
