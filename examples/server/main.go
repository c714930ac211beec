// Server walkthrough: embed the internal/service execution layer — the
// compile-once/execute-many front end over every engine — drive it
// with concurrent mixed-engine traffic, and read the metrics snapshot.
// The same service is exposed over HTTP by cmd/vmd; README.md next to
// this file shows the curl equivalent of each step.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"stackcache/internal/service"
	"stackcache/internal/vm"
)

const src = `
: square ( n -- n^2 ) dup * ;
: sum-squares ( n -- sum ) 0 swap 1+ 1 do i square + loop ;
: main 100 sum-squares . ;
`

// hostile never halts; only its step budget stops it.
const hostile = `: main 0 begin 1 + dup 0 < until ;`

func main() {
	// 1. Start the service: a worker pool in front of a
	// content-addressed program cache. Defaults: GOMAXPROCS workers,
	// 4x that queue depth, 256 cached programs.
	svc, err := service.New(service.Config{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	// 2. Optionally pre-warm the cache. The key is the program's
	// content address (SHA-256 of compile options + source).
	key, _, err := svc.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled once, cached as %s...\n\n", key[:16])

	// 3. Fire concurrent requests across every registered engine —
	// the service's engine set comes straight from the engine
	// registry. All of them hit the cache: one compile serves the
	// whole burst.
	var wg sync.WaitGroup
	for _, name := range svc.Engines() {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			resp, err := svc.Run(context.Background(), service.Request{Source: src, Engine: name})
			if err != nil {
				log.Printf("%s: %v", name, err)
				return
			}
			fmt.Printf("%-10s -> %s (%d steps, cache hit: %v)\n",
				name, resp.Output, resp.Steps, resp.CacheHit)
		}(name)
	}
	wg.Wait()

	// 3b. Program arguments: the same cached program, two different
	// computations. The cache key covers only the source, so neither
	// run recompiles anything.
	for _, args := range [][]vm.Cell{{30, 12}, {7, 5}} {
		resp, err := svc.Run(context.Background(), service.Request{
			Source: ": main + . ;",
			Args:   args,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("args %v -> %s (cache hit: %v)\n", args, resp.Output, resp.CacheHit)
	}

	// 4. A hostile program cannot wedge a worker: the step budget
	// turns it into a classified limit error.
	_, err = svc.Run(context.Background(), service.Request{
		Source:   hostile,
		Engine:   "threaded",
		MaxSteps: 100_000,
	})
	fmt.Printf("\nhostile program: classified as %q (%v)\n", service.Classify(err), err)

	// 5. The metrics have seen everything: requests, cache
	// hits/misses, per-engine steps, errors by class.
	snap := svc.Stats()
	fmt.Printf("\nrequests=%d completed=%d cache hit rate=%.2f\n",
		snap.Requests, snap.Completed, snap.HitRate())
	fmt.Printf("errors by class: %v\n", snap.Errors)
	for _, name := range svc.Engines() {
		if es, ok := snap.Engines[name]; ok {
			fmt.Printf("  %-10s %d requests, %d steps\n", name, es.Requests, es.Steps)
		}
	}
}
