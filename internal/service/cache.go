package service

import (
	"container/list"
	"strconv"
	"sync"

	"stackcache/internal/artifact"
	"stackcache/internal/forth"
	"stackcache/internal/vm"
)

// Entry is one cached, compiled, verified program. Entries are
// immutable once published (the compile-once contract: only programs
// that passed vm.Verify enter the cache). The entry is a view over its
// artifact.Unit — the content-addressed home of everything derived
// from the program's bytes: quickened bytecode, analysis facts, and
// the per-engine prepared blobs (static plans, AOT closures) that used
// to live in private engine caches.
type Entry struct {
	// Key is the content address: hex SHA-256 over the compile
	// options and the Forth source.
	Key string

	// Unit is the program's artifact-store unit; engines' Prepare
	// steps file their compiled blobs on it.
	Unit *artifact.Unit

	// Prog is the compiled, verified program (Unit.Prog).
	Prog *vm.Program

	// Facts is the abstract-interpretation result for Prog, computed
	// once per unit (or loaded from the disk tier) and shared by every
	// execution of the entry. Proved facts let engines elide
	// per-instruction stack bounds checks; unproven facts keep the
	// dynamic checks. Never nil for a published entry.
	Facts *vm.Facts

	// Quickened reports that Prog was rewritten to superinstruction
	// form at insert time (vm.Quicken planted at least one site) and
	// re-verified; QuickenedOps is the number of planted sites.
	// Quickening is safe exactly here because cached programs are
	// immutable and every entry passes the verifier after the rewrite.
	Quickened    bool
	QuickenedOps int

	// Optimized reports that Prog derives from the static optimizer's
	// rewrite, adopted only after vm.CheckTranslation independently
	// proved it observably equivalent to the compiled source program.
	// OptimizedOps counts rewritten or deleted instruction slots per
	// optimizer pass.
	Optimized    bool
	OptimizedOps [vm.NumOptPasses]int
}

// CacheKey computes the content address the program cache uses for a
// (options, source) pair. It is artifact.SourceHash, so a service's
// response keys line up with the artifact store's addressing (and with
// forthvm's, letting the CLIs warm-start from a vmd cache directory).
func CacheKey(src string, opt forth.Options) string {
	return artifact.SourceHash(opt.CacheKey(), src)
}

// inflight tracks one in-progress compile so that N concurrent
// requests for the same source trigger exactly one compiler run;
// late-comers block on done and share the result.
type inflight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// ProgramCache is a bounded, content-addressed cache of compiled and
// verified programs with LRU eviction and single-flight compilation.
// It is safe for concurrent use. Compilation runs outside the lock, so
// a slow compile of one program never blocks hits on others.
//
// The cache fronts an artifact.Store: its own LRU holds the service's
// working set of Entry views (what responses and metrics key on),
// while the store owns the units — and, when cacheDir is set, the
// on-disk tier a restarted service warm-starts from.
type ProgramCache struct {
	opt     forth.Options
	max     int
	metrics *Metrics

	// quicken enables the cache-time superinstruction rewrite
	// (Config.Quicken); set before first use, constant afterwards.
	quicken bool

	// optimize enables the cache-time proof-carrying optimizer
	// (Config.Optimize); set before first use, constant afterwards.
	optimize bool

	// cacheDir, when non-empty, enables the artifact store's disk
	// tier (Config.CacheDir); set before first use, constant
	// afterwards.
	cacheDir string

	// store is built lazily on first use so quicken/cacheDir (assigned
	// after NewProgramCache) are final when its config is read.
	storeOnce sync.Once
	store     *artifact.Store

	mu       sync.Mutex
	lru      *list.List // front = most recent; values are *Entry
	byKey    map[string]*list.Element
	inflight map[string]*inflight

	// onCompile, when set, runs at the start of every real compiler
	// invocation. Tests use it to prove single-flight dedup (exactly
	// one compile per source) and to hold compiles open.
	onCompile func(src string)
}

// NewProgramCache builds a cache bounded to max entries (min 1).
// Compiled programs use opt. The metrics registry may be nil, e.g. in
// tests that only exercise the cache.
func NewProgramCache(max int, opt forth.Options, m *Metrics) *ProgramCache {
	if max < 1 {
		max = 1
	}
	return &ProgramCache{
		opt:      opt,
		max:      max,
		metrics:  m,
		lru:      list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*inflight),
	}
}

// artifacts returns the cache's artifact store, building it on first
// use from the final quicken/cacheDir configuration. The store is
// per-cache (not process-global) so each service owns its compile
// accounting and disk tier.
func (c *ProgramCache) artifacts() *artifact.Store {
	c.storeOnce.Do(func() {
		c.store = artifact.NewStore(artifact.Config{
			MaxUnits: c.max,
			Dir:      c.cacheDir,
			Quicken:  c.quicken,
			Optimize: c.optimize,
			// The fingerprint completes the key: compile options are in
			// the source hash already, quickening and optimization are
			// not — and a -quicken=false or -optimize=false restart must
			// not be served rewritten units.
			Fingerprint: "quicken=" + strconv.FormatBool(c.quicken) +
				",optimize=" + strconv.FormatBool(c.optimize),
		})
	})
	return c.store
}

// Len returns the number of cached entries.
func (c *ProgramCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// lookupKind says how a Get was satisfied.
type lookupKind int

const (
	// lookupHit found the program already cached.
	lookupHit lookupKind = iota
	// lookupCoalesced joined another request's in-flight compile.
	lookupCoalesced
	// lookupMiss compiled the program itself (possibly from the
	// artifact store's memory or disk tier rather than from source).
	lookupMiss
)

// Get returns the compiled program for src, compiling and verifying it
// on a miss. Failed compiles are reported to every waiter but never
// cached: the cache holds only programs that satisfy the full verifier
// contract.
func (c *ProgramCache) Get(src string) (*Entry, lookupKind, error) {
	key := CacheKey(src, c.opt)

	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		if c.metrics != nil {
			c.metrics.cacheHits.Add(1)
		}
		return el.Value.(*Entry), lookupHit, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		if c.metrics != nil {
			c.metrics.cacheCoalesced.Add(1)
		}
		<-fl.done
		return fl.entry, lookupCoalesced, fl.err
	}
	fl := &inflight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()
	if c.metrics != nil {
		c.metrics.cacheMisses.Add(1)
	}

	entry, err := c.compile(key, src)
	fl.entry, fl.err = entry, err

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.insert(key, entry)
	}
	c.mu.Unlock()
	close(fl.done)
	return entry, lookupMiss, err
}

// compile resolves a cache miss through the artifact store, outside
// the cache lock. The store stages the full pipeline — disk tier,
// forth compile, vm.Prove (the verify gate and the facts), optional
// optimization (validated) and quickening (re-verified), persist — and
// the entry is a view over the resulting unit. Quickened-program metrics count only true source
// builds: a unit served from the disk tier was counted by the process
// that built it.
func (c *ProgramCache) compile(key, src string) (*Entry, error) {
	u, outcome, err := c.artifacts().GetOrBuild("src:"+key, func() (*vm.Program, error) {
		if c.onCompile != nil {
			c.onCompile(src)
		}
		return forth.CompileWithOptions(src, c.opt)
	})
	if err != nil {
		return nil, err
	}
	if outcome == artifact.Miss && c.metrics != nil {
		if u.Quickened {
			c.metrics.quickenedPrograms.Add(1)
			c.metrics.quickenedOps.Add(int64(u.QuickenedOps))
		}
		if u.Optimized {
			c.metrics.optimizedPrograms.Add(1)
			for pass, n := range u.OptimizedOps {
				c.metrics.optimizedOps[pass].Add(int64(n))
			}
		}
	}
	return &Entry{
		Key:          key,
		Unit:         u,
		Prog:         u.Prog,
		Facts:        u.Facts(),
		Quickened:    u.Quickened,
		QuickenedOps: u.QuickenedOps,
		Optimized:    u.Optimized,
		OptimizedOps: u.OptimizedOps,
	}, nil
}

// insert publishes the entry and evicts beyond the bound. Caller holds
// the lock.
func (c *ProgramCache) insert(key string, e *Entry) {
	if el, ok := c.byKey[key]; ok {
		// A concurrent Get published the key first (possible when an
		// inflight slot is recreated after eviction); keep the
		// existing entry fresh.
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*Entry).Key)
		if c.metrics != nil {
			c.metrics.cacheEvictions.Add(1)
		}
	}
}
