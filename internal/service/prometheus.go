package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"stackcache/internal/vm"
)

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4) — the plain-text counters-and-
// histograms dialect every Prometheus-compatible scraper speaks. It is
// a hand-rolled encoder over the same Snapshot /stats serves as JSON,
// so the service stays dependency-free.
//
// Conventions: every metric is prefixed vmd_; counters end in _total;
// the per-engine latency histogram follows the native histogram-as-
// cumulative-buckets encoding (vmd_exec_latency_seconds_bucket with an
// le label, plus _sum and _count).
func WritePrometheus(w io.Writer, s Snapshot) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	family := func(name, typ, help string) {
		p("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	counter := func(name, help string, v int64) {
		family(name, "counter", help)
		p("%s %d\n", name, v)
	}
	byClass := func(name, help string, m map[string]int64) {
		family(name, "counter", help)
		for _, c := range sortedKeys(m) {
			p("%s{class=%q} %d\n", name, c, m[c])
		}
	}
	// histogram writes one series of a histogram family: counts[i] is
	// the count of bucket i, whose upper bound is le(i), and the last
	// bucket catches the rest. Prometheus wants cumulative counts, and
	// the total is the series' _count.
	histogram := func(name, labels string, counts []int64, le func(i int) string) int64 {
		cum := int64(0)
		for i, n := range counts {
			cum += n
			bound := "+Inf"
			if i < len(counts)-1 {
				bound = le(i)
			}
			p("%s_bucket{%sle=%q} %d\n", name, labels, bound, cum)
		}
		return cum
	}

	counter("vmd_requests_total", "Requests received, including rejects.", s.Requests)
	counter("vmd_completed_total", "Requests finished, any class.", s.Completed)
	counter("vmd_cache_hits_total", "Program cache hits.", s.CacheHits)
	counter("vmd_cache_misses_total", "Program cache lookups that built the program from source, loaded it from the disk tier, or failed to compile.", s.CacheMisses)
	counter("vmd_cache_coalesced_total", "Lookups that joined an in-flight compile.", s.CacheCoalesced)
	counter("vmd_cache_evictions_total", "Programs evicted from the cache.", s.CacheEvictions)
	family("vmd_cache_size", "gauge", "Programs currently cached.")
	p("vmd_cache_size %d\n", s.CacheSize)

	family("vmd_analysis_total", "counter", "Executions by the abstract interpreter's verdict for their program.")
	p("vmd_analysis_total{outcome=\"proved\"} %d\n", s.AnalysisProved)
	p("vmd_analysis_total{outcome=\"unproven\"} %d\n", s.AnalysisUnproven)

	counter("vmd_quickened_programs_total", "Full builds, promotions included, that rewrote the program to superinstruction form.", s.QuickenedPrograms)
	counter("vmd_quickened_ops_total", "Superinstruction sites planted across quickened programs.", s.QuickenedOps)

	counter("vmd_optimized_programs_total", "Full builds, promotions included, that serve a validator-certified optimizer rewrite.", s.OptimizedPrograms)
	family("vmd_optimized_ops_total", "counter", "Instruction slots rewritten or deleted per optimizer pass across optimized programs.")
	// Declaration order, every pass label always present: the label set
	// IS the optimizer's pass set, which the lint suite pins.
	for pass := vm.OptPass(0); pass < vm.NumOptPasses; pass++ {
		p("vmd_optimized_ops_total{pass=%q} %d\n", pass, s.OptimizedOps[pass.String()])
	}

	counter("vmd_compiled_programs_total", "Programs lowered to AOT closure artifacts by the compiled engine.", s.CompiledPrograms)
	counter("vmd_compiled_proved_total", "AOT artifacts carrying a proof-elided code variant.", s.CompiledProved)

	family("vmd_artifact_total", "counter", "Artifact-store events by pipeline stage and outcome; a promoted unit is a base unit given the full build, not a hit, miss or eviction.")
	p("vmd_artifact_total{stage=\"unit\",outcome=\"memory_hit\"} %d\n", s.Artifact.MemoryHits)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"disk_hit\"} %d\n", s.Artifact.DiskHits)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"miss\"} %d\n", s.Artifact.Misses)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"coalesced\"} %d\n", s.Artifact.Coalesced)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"corrupt_recomputed\"} %d\n", s.Artifact.CorruptRecomputed)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"evicted\"} %d\n", s.Artifact.Evictions)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"promoted\"} %d\n", s.Artifact.Promoted)
	p("vmd_artifact_total{stage=\"persist\",outcome=\"ok\"} %d\n", s.Artifact.Persisted)
	p("vmd_artifact_total{stage=\"persist\",outcome=\"error\"} %d\n", s.Artifact.PersistErrors)
	p("vmd_artifact_total{stage=\"optimize\",outcome=\"refused\"} %d\n", s.Artifact.OptimizeRefused)

	byClass("vmd_results_total", "Finished requests by error class.", s.Errors)

	counter("vmd_batch_inputs_total", "Inputs executed via batch requests.", s.BatchInputs)
	byClass("vmd_batch_input_results_total", "Per-input outcomes within batch requests, by error class.", s.BatchInputResults)
	// Bucket i counts batches of at most 2^i inputs; the sum of sizes
	// is exactly the total input count the snapshot already carries.
	family("vmd_batch_size", "histogram", "Inputs per executed batch request.")
	batches := histogram("vmd_batch_size", "", s.BatchSizes[:], func(i int) string { return strconv.Itoa(1 << i) })
	p("vmd_batch_size_sum %d\nvmd_batch_size_count %d\n", s.BatchInputs, batches)

	engines := sortedKeys(s.Engines)
	family("vmd_engine_requests_total", "counter", "Executions per engine.")
	for _, e := range engines {
		p("vmd_engine_requests_total{engine=%q} %d\n", e, s.Engines[e].Requests)
	}
	family("vmd_engine_steps_total", "counter", "VM instructions executed per engine.")
	for _, e := range engines {
		p("vmd_engine_steps_total{engine=%q} %d\n", e, s.Engines[e].Steps)
	}
	// Latency bucket i counts executions in [2^(i-1), 2^i) microseconds
	// (bucket 0: <1us); Prometheus wants upper bounds in seconds.
	family("vmd_exec_latency_seconds", "histogram", "Execution wall-clock latency per engine.")
	for _, e := range engines {
		es := s.Engines[e]
		n := histogram("vmd_exec_latency_seconds", fmt.Sprintf("engine=%q,", e), es.Latency[:], func(i int) string {
			return strconv.FormatFloat(float64(int64(1)<<i)/1e6, 'g', -1, 64)
		})
		p("vmd_exec_latency_seconds_sum{engine=%q} %s\n", e, strconv.FormatFloat(es.LatencySum.Seconds(), 'g', -1, 64))
		p("vmd_exec_latency_seconds_count{engine=%q} %d\n", e, n)
	}
	return err
}

// sortedKeys returns m's keys in order. Map iteration order is random;
// sorted labels keep scrapes stable and diffs between them meaningful.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
