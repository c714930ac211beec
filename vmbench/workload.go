package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"stackcache/internal/workloads"
)

const (
	// A run sets up setupGroups*groupSetups times; setup_s is the
	// median. The groups alternate with stretches of the timed loop, so
	// that set-up is timed at several moments of the run: the host's
	// speed drifts in phases of seconds to minutes.
	setupGroups = 5
	groupSetups = 8

	// minSamples keeps at least ten latency samples beyond p99.
	minSamples = 1000

	// chunk is how many requests are generated, outside the clock,
	// between stretches of the timed loop.
	chunk = 64

	// vmdCacheEntries is vmd's default program-cache bound.
	vmdCacheEntries = 256

	tinyPool  = 16
	tinyBatch = 16
)

// request is one /run call with its expected result: one per input for
// a batch, else one.
type request struct {
	id    int
	src   string
	args  []int64   // singleton
	batch [][]int64 // batch inputs, nil for a singleton
	want  []result
	body  []byte
}

func (q *request) isBatch() bool { return q.batch != nil }

// newRequest encodes the /run body. No request names an engine: every
// request runs on the service's default engine.
func newRequest(id int, src string, args []int64, batch [][]int64, want []result) *request {
	q := &request{id: id, src: src, args: args, batch: batch, want: want}
	type input struct {
		Args []int64 `json:"args"`
	}
	body := struct {
		Source string  `json:"source"`
		Args   []int64 `json:"args,omitempty"`
		Inputs []input `json:"inputs,omitempty"`
	}{Source: src, Args: args}
	for _, a := range batch {
		body.Inputs = append(body.Inputs, input{a})
	}
	q.body, _ = json.Marshal(body)
	return q
}

// workload is one traffic mix. stream builds its deterministic request
// sequence; programs is the fixed program set that set-up compiles and
// the traced pipeline pass measures.
type workload struct {
	name string
	// warm reports that every set-up restarts over one cache directory
	// an earlier daemon filled. The other workloads run vmd without a
	// cache directory: on the 2-vCPU virtual machine the benchmark was
	// tuned on, creating a file took from 0.04 to 0.5 ms depending on the
	// moment, which made the per-request persist the largest source of
	// noise between runs. The traced run still times persistence
	// (artifact.persist_ms).
	warm bool
	// fresh reports that every request carries a never-seen program: the
	// cache only misses, and set-up compiles nothing.
	fresh bool
	// traced is how many requests of the traced HTTP pass get spans; it
	// sends twice as many. The number is fixed so that the /stats
	// counters and response bytes are exact counts.
	traced int
	stream func(seed uint64) (*stream, error)
}

type stream struct {
	// programs are the workload's fixed programs with the args their
	// set-up run and pipeline measurements use.
	programs []fixedProgram
	request  func(i int) (*request, error)
}

type fixedProgram struct {
	name string
	src  string
	args []int64
	want result
}

var workloadSet = map[string]*workload{
	"paper": {name: "paper", warm: true, traced: 200, stream: paperStream},
	"tiny":  {name: "tiny", traced: 1000, stream: tinyStream},
	"cold":  {name: "cold", fresh: true, traced: 300, stream: coldStream},
}

//go:embed paper_golden.json
var paperGoldenJSON []byte

// paperGolden pins the four paper programs' outputs and final stacks.
func paperGolden() (map[string]result, error) {
	var g map[string]result
	if err := json.Unmarshal(paperGoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("paper golden: %w", err)
	}
	return g, nil
}

// paperMix is one block of ten paper requests before shuffling. The
// short programs (prims2x, cross) take 80% of requests so that p50
// falls inside their latency mode and p99 inside the long one.
var paperMix = []string{"prims2x", "prims2x", "prims2x", "prims2x", "cross", "cross", "cross", "cross", "compile", "gray"}

func paperStream(seed uint64) (*stream, error) {
	golden, err := paperGolden()
	if err != nil {
		return nil, err
	}
	s := &stream{}
	byName := map[string]*fixedProgram{}
	for _, w := range workloads.Suite() {
		want, ok := golden[w.Name]
		if !ok {
			return nil, fmt.Errorf("paper golden: no entry for %s", w.Name)
		}
		s.programs = append(s.programs, fixedProgram{name: w.Name, src: w.Source, want: want})
	}
	for i := range s.programs {
		byName[s.programs[i].name] = &s.programs[i]
	}
	s.request = func(i int) (*request, error) {
		// Each block of ten holds the exact mix in a seeded order, so the
		// share of long programs does not vary with the seed.
		block := rand.New(rand.NewSource(int64(mix(seed, uint64(i/len(paperMix)), 0x9a9e)))).Perm(len(paperMix))
		p := byName[paperMix[block[i%len(paperMix)]]]
		return newRequest(i, p.src, nil, nil, []result{p.want}), nil
	}
	return s, nil
}

// tinyArgs draws n args in [-1000, 1000] for input k of request i.
func tinyArgs(seed uint64, i, k, n int) []int64 {
	out := make([]int64, n)
	for a := range out {
		out[a] = int64(mix(seed, uint64(i), uint64(k), uint64(a), 0xa295)%2001) - 1000
	}
	return out
}

func tinyStream(seed uint64) (*stream, error) {
	s := &stream{}
	pool := make([]*genProgram, tinyPool)
	for k := range pool {
		p := tinyProgram(seed, k)
		pool[k] = p
		args := tinyArgs(seed, -1-k, 0, p.NArgs)
		want, _, err := p.Eval(args)
		if err != nil {
			return nil, err
		}
		s.programs = append(s.programs, fixedProgram{name: fmt.Sprintf("tiny%d", k), src: p.Source, args: args, want: want})
	}
	s.request = func(i int) (*request, error) {
		p := pool[mix(seed, uint64(i), 0x7e9)%tinyPool]
		// One request in every block of five is a batch.
		batchAt := int(mix(seed, uint64(i/5), 0xba7c) % 5)
		n := 1
		if i%5 == batchAt {
			n = tinyBatch
		}
		inputs := make([][]int64, n)
		want := make([]result, n)
		for k := range inputs {
			inputs[k] = tinyArgs(seed, i, k, p.NArgs)
			res, _, err := p.Eval(inputs[k])
			if err != nil {
				return nil, err
			}
			want[k] = res
		}
		if n == 1 {
			return newRequest(i, p.Source, inputs[0], nil, want), nil
		}
		return newRequest(i, p.Source, nil, inputs, want), nil
	}
	return s, nil
}

// coldFixed is how many cold programs form the fixed set the traced
// pipeline pass measures.
const coldFixed = 24

func coldStream(seed uint64) (*stream, error) {
	s := &stream{}
	s.request = func(i int) (*request, error) {
		p, want, err := coldProgram(seed, i)
		if err != nil {
			return nil, err
		}
		return newRequest(i, p.Source, nil, nil, []result{want}), nil
	}
	// The fixed set is drawn from a range of indices the stream never
	// reaches, so measuring it does not pre-warm any request.
	for k := 0; k < coldFixed; k++ {
		q, err := s.request(1<<30 + k)
		if err != nil {
			return nil, err
		}
		s.programs = append(s.programs, fixedProgram{name: fmt.Sprintf("cold%d", k), src: q.src, want: q.want[0]})
	}
	return s, nil
}

// ---- end-to-end run ----

// setUp spawns vmd over dir and makes it ready for the workload:
// /healthz, then for paper and tiny /compile of every fixed program and
// one checked /run each.
func (r *run) setUp(s *stream, dir string) (*daemon, error) {
	d, err := startDaemon(r.vmd, dir)
	if err != nil {
		return nil, err
	}
	if r.w.fresh {
		return d, nil
	}
	for _, p := range s.programs {
		if err := d.compile(p.src); err != nil {
			return nil, d.failure(fmt.Errorf("set-up %s: %w", p.name, err))
		}
	}
	for _, p := range s.programs {
		q := newRequest(-1, p.src, p.args, nil, []result{p.want})
		status, body, err := d.do("POST", "/run", q.body)
		if err != nil {
			return nil, d.failure(fmt.Errorf("set-up %s: %w", p.name, err))
		}
		r.attempted++
		if err := check(status, body, q); err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "vmbench: set-up run of %s failed: %v\n", p.name, err)
		}
	}
	return d, nil
}

// cacheDir returns the directory set-up k serves from: for the warm
// workload one directory filled before the first set-up, untimed;
// otherwise none.
func (r *run) cacheDir(s *stream, k int) (string, error) {
	if !r.w.warm {
		return "", nil
	}
	dir := filepath.Join(r.dir, "warm")
	if k > 0 {
		return dir, nil
	}
	d, err := startDaemon(r.vmd, dir)
	if err != nil {
		return "", err
	}
	defer d.stop()
	for _, p := range s.programs {
		if err := d.compile(p.src); err != nil {
			return "", d.failure(fmt.Errorf("fill cache: %w", err))
		}
	}
	return dir, nil
}

// ready performs set-up group g and returns its last daemon, still
// running, with the set-up times in seconds.
func (r *run) ready(s *stream, g int) (*daemon, []float64, error) {
	var d *daemon
	var times []float64
	for k := g * groupSetups; k < (g+1)*groupSetups; k++ {
		dir, err := r.cacheDir(s, k)
		if err != nil {
			return nil, nil, err
		}
		if d != nil {
			d.stop()
		}
		start := time.Now()
		d, err = r.setUp(s, dir)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, times, nil
}

// loopResult is what a closed loop measured.
type loopResult struct {
	lat     []float64 // ms per request, in request order
	ids     []int
	bytes   []int // response body sizes
	elapsed time.Duration
}

// loop sends the stream from request first in a closed loop until at
// least count requests completed and dur has passed. Stream generation
// happens between chunks, off the clock.
//
// With a tracer, each request tracedID selects also gets a "vmd.run"
// span.
func (r *run) loop(d *daemon, s *stream, first, count int, dur time.Duration, tr *tracer) (*loopResult, error) {
	res := &loopResult{}
	reqs := make([]*request, 0, chunk)
	for i := first; ; {
		reqs = reqs[:0]
		for len(reqs) < chunk {
			q, err := s.request(i + len(reqs))
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, q)
		}
		start := time.Now()
		for _, q := range reqs {
			n := len(res.lat)
			if n >= count && res.elapsed+time.Since(start) >= dur {
				res.elapsed += time.Since(start)
				return res, nil
			}
			sp, traced := 0, tr != nil && tracedID(q.id)
			if traced {
				sp = tr.begin("vmd.run", -1, q.id)
			}
			t0 := time.Now()
			status, body, err := d.do("POST", "/run", q.body)
			lat := time.Since(t0)
			if traced {
				tr.end(sp)
			}
			if err != nil {
				return nil, d.failure(fmt.Errorf("request %d: %w", q.id, err))
			}
			res.lat = append(res.lat, ms(lat))
			res.ids = append(res.ids, q.id)
			res.bytes = append(res.bytes, len(body))
			r.attempted++
			if err := check(status, body, q); err != nil {
				r.failed++
				if r.failed <= 5 {
					fmt.Fprintf(os.Stderr, "vmbench: request %d failed: %v\n", q.id, err)
				}
			}
		}
		res.elapsed += time.Since(start)
		i += len(reqs)
	}
}

// selfCheck compares /stats before and after the loop with what the
// workload implies: paper and tiny never miss the cache after set-up,
// cold never hits and evicts everything beyond the cache bound, and no
// request finishes with a class other than ok. A failed check fails the
// run rather than let it measure a different workload.
func (r *run) selfCheck(before, after stats, sent int) {
	if bad := after.notOK(); len(bad) > 0 {
		r.problem("requests finished with classes other than ok: %v", bad)
	}
	if after.Completed != after.Requests {
		r.problem("/stats: %d requests but %d completed", after.Requests, after.Completed)
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if r.w.fresh {
		if after.CacheHits != 0 || misses != int64(sent) {
			r.problem("%s: %d cache hits and %d misses for %d never-seen programs", r.w.name, after.CacheHits, misses, sent)
		}
		if want := max(after.CacheMisses-vmdCacheEntries, 0); after.CacheEvictions != want {
			r.problem("%s: %d evictions for %d misses, want %d", r.w.name, after.CacheEvictions, after.CacheMisses, want)
		}
		return
	}
	if misses != 0 || hits != int64(sent) {
		r.problem("%s: %d cache misses and %d hits after set-up for %d requests", r.w.name, misses, hits, sent)
	}
}

func (r *run) endToEnd() (map[string]metric, error) {
	s, err := r.w.stream(r.seed)
	if err != nil {
		return nil, err
	}
	var setups, lat, p50s, rates []float64
	var elapsed time.Duration
	for g := 0; g < setupGroups; g++ {
		d, times, err := r.ready(s, g)
		if err != nil {
			return nil, err
		}
		setups = append(setups, times...)
		res, err := r.stretch(d, s, len(lat))
		d.stop()
		if err != nil {
			return nil, err
		}
		lat = append(lat, res.lat...)
		elapsed += res.elapsed
		p50s = append(p50s, percentile(res.lat, 0.50))
		rates = append(rates, float64(len(res.lat))/res.elapsed.Seconds())
	}
	// The per-stretch figures show how far the host drifted within the
	// run; the metrics pool every stretch.
	r.prov["samples"] = len(lat)
	r.prov["setup_s_all"] = setups
	r.prov["stretch_p50_ms"] = p50s
	r.prov["stretch_req_per_s"] = rates
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"req_per_s":      {float64(len(lat)) / elapsed.Seconds(), "1/s"},
		"latency_p50_ms": {percentile(lat, 0.50), "ms"},
		"latency_p99_ms": {percentile(lat, 0.99), "ms"},
	}, nil
}

// stretch runs one setupGroups-th of the timed loop on d, from request
// first, and self-checks /stats around it.
func (r *run) stretch(d *daemon, s *stream, first int) (*loopResult, error) {
	var before, after stats
	if err := d.getJSON("/stats", &before); err != nil {
		return nil, d.failure(err)
	}
	res, err := r.loop(d, s, first, minSamples/setupGroups, r.seconds/setupGroups, nil)
	if err != nil {
		return nil, err
	}
	if err := d.getJSON("/stats", &after); err != nil {
		return nil, d.failure(err)
	}
	r.selfCheck(before, after, len(res.lat))
	return res, nil
}
