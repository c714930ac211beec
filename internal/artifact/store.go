package artifact

import (
	"container/list"
	"sync"
	"sync/atomic"

	"stackcache/internal/vm"
)

// Outcome says which tier satisfied a GetOrBuild.
type Outcome int

const (
	// MemoryHit: the unit was resident in the store's LRU.
	MemoryHit Outcome = iota
	// DiskHit: loaded (checksum-verified) from the on-disk tier.
	DiskHit
	// Miss: built from source via the produce callback.
	Miss
	// Coalesced: joined another caller's in-flight build.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case MemoryHit:
		return "memory_hit"
	case DiskHit:
		return "disk_hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// Config shapes a Store.
type Config struct {
	// MaxUnits bounds the in-memory LRU; <1 means 512.
	MaxUnits int
	// Dir, when non-empty, enables the on-disk tier: every built unit
	// is persisted there and lookups consult it on memory miss.
	Dir string
	// Quicken rewrites the program to serve to superinstructions (and
	// verifies it again), exactly like the service's cache-time
	// quickening.
	Quicken bool
	// Optimize runs the static optimizer over depth-proven programs and
	// adopts the rewrite only when the translation validator
	// (vm.ProveTranslation) proves it observably equivalent; a refusal
	// is counted and the unoptimized program is served. Optimization
	// happens before quickening, so superinstruction fusion sees the
	// optimized instruction stream.
	Optimize bool
	// Fingerprint is the policy fingerprint folded into every key.
	// Two stores with different fingerprints never share entries, in
	// memory or on disk — a -quicken=false restart must not serve
	// quickened units.
	Fingerprint string
}

// Store is a bounded content-addressed cache of Units with
// single-flight builds and an optional disk tier. All methods are safe
// for concurrent use.
type Store struct {
	cfg Config

	mu       sync.Mutex
	lru      *list.List // of *Unit, front = most recent
	byKey    map[string]*list.Element
	inflight map[string]*inflightUnit

	memoryHits  atomic.Int64
	diskHits    atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	corrupt     atomic.Int64
	persisted   atomic.Int64
	persistErrs atomic.Int64
	evictions   atomic.Int64
	optRefused  atomic.Int64
}

// optimizeFn is vm.OptimizeProof, indirected so tests can stand in a
// deliberately wrong optimizer and watch the validator gate refuse
// its output. Production code never reassigns it.
var optimizeFn = vm.OptimizeProof

type inflightUnit struct {
	done    chan struct{}
	unit    *Unit
	outcome Outcome
	err     error
}

// Counters is a point-in-time snapshot of the store's tier counters.
// The service reports it as is, as the "artifact" object of /stats.
type Counters struct {
	MemoryHits        int64 `json:"memory_hits"`
	DiskHits          int64 `json:"disk_hits"`
	Misses            int64 `json:"misses"`
	Coalesced         int64 `json:"coalesced"`
	CorruptRecomputed int64 `json:"corrupt_recomputed"`
	Persisted         int64 `json:"persisted"`
	PersistErrors     int64 `json:"persist_errors"`
	Evictions         int64 `json:"evictions"`

	// OptimizeRefused counts builds where the optimizer proposed a
	// rewrite the translation validator would not certify; the store
	// served the unoptimized program instead.
	OptimizeRefused int64 `json:"optimize_refused"`
}

// NewStore returns an empty store. When cfg.Dir is set the directory
// is created eagerly so the first persist doesn't race a mkdir.
func NewStore(cfg Config) *Store {
	if cfg.MaxUnits < 1 {
		cfg.MaxUnits = 512
	}
	if cfg.Dir != "" {
		ensureDir(cfg.Dir)
	}
	return &Store{
		cfg:      cfg,
		lru:      list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*inflightUnit),
	}
}

// Counters returns the current tier counters.
func (s *Store) Counters() Counters {
	return Counters{
		MemoryHits:        s.memoryHits.Load(),
		DiskHits:          s.diskHits.Load(),
		Misses:            s.misses.Load(),
		Coalesced:         s.coalesced.Load(),
		CorruptRecomputed: s.corrupt.Load(),
		Persisted:         s.persisted.Load(),
		PersistErrors:     s.persistErrs.Load(),
		Evictions:         s.evictions.Load(),
		OptimizeRefused:   s.optRefused.Load(),
	}
}

// Len reports the number of resident units.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// GetOrBuild returns the unit for hash, staging through the tiers:
// memory LRU, in-flight build join, disk (when configured), and
// finally produce → prove → optimize+validate → quicken → persist
// (see build). The full store key is (hash, Fingerprint). Failed
// builds are never cached; concurrent callers for one key share a
// single build and its error.
func (s *Store) GetOrBuild(hash string, produce func() (*vm.Program, error)) (*Unit, Outcome, error) {
	key := hash
	if s.cfg.Fingerprint != "" {
		key = hash + "|" + s.cfg.Fingerprint
	}

	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		s.memoryHits.Add(1)
		return el.Value.(*Unit), MemoryHit, nil
	}
	if fl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, Coalesced, fl.err
		}
		s.coalesced.Add(1)
		return fl.unit, Coalesced, nil
	}
	fl := &inflightUnit{done: make(chan struct{})}
	s.inflight[key] = fl
	s.mu.Unlock()

	fl.unit, fl.outcome, fl.err = s.build(key, produce)

	var evicted []*Unit
	s.mu.Lock()
	delete(s.inflight, key)
	if fl.err == nil {
		if el, ok := s.byKey[key]; ok {
			// A concurrent path published first (possible only across
			// fingerprint-sharing stores reopening the same dir);
			// prefer the resident unit so identity stays unique.
			s.lru.MoveToFront(el)
			fl.unit = el.Value.(*Unit)
		} else {
			s.byKey[key] = s.lru.PushFront(fl.unit)
			for s.lru.Len() > s.cfg.MaxUnits {
				back := s.lru.Back()
				u := back.Value.(*Unit)
				s.lru.Remove(back)
				delete(s.byKey, u.Key)
				evicted = append(evicted, u)
				s.evictions.Add(1)
			}
		}
	}
	s.mu.Unlock()
	close(fl.done)

	if fl.err == nil {
		registerIdentity(fl.unit)
	}
	for _, u := range evicted {
		dropIdentity(u.Prog)
	}
	return fl.unit, fl.outcome, fl.err
}

// build resolves a key miss: disk first (when configured), then the
// produce callback and the pipeline, which proves each distinct
// program it derives exactly once:
//
//   - prove: vm.Prove verifies and analyzes the produced program p; a
//     verify error fails the build.
//   - optimize+validate (Config.Optimize, p depth-proven): the
//     untrusted optimizer proposes a rewrite t, and
//     vm.ProveTranslation, given p's Proof, verifies, analyzes and
//     validates t. A refusal is counted and p is served.
//   - quicken (Config.Quicken): Proof.Quicken plants superinstructions
//     in the program to serve and verifies the result; the facts carry
//     over unchanged.
//
// The unit's facts are those of the last Proof, so the served program
// is never analyzed twice.
func (s *Store) build(key string, produce func() (*vm.Program, error)) (*Unit, Outcome, error) {
	if s.cfg.Dir != "" {
		if u, ok := s.loadDisk(key); ok {
			s.diskHits.Add(1)
			return u, DiskHit, nil
		}
	}

	p, err := produce()
	if err != nil {
		return nil, Miss, err
	}
	pf, err := vm.Prove(p)
	if err != nil {
		return nil, Miss, err
	}
	u := newUnit(key, p)
	if s.cfg.Optimize && pf.Facts().Proved {
		// The optimizer is untrusted: its rewrite is adopted only when
		// the independent translation validator proves it observably
		// equivalent to what the front end produced. A refusal is not
		// an error — the unoptimized program is correct and is served.
		if r := optimizeFn(pf); r.Changed {
			if tp, err := vm.ProveTranslation(pf, r.Prog); err != nil {
				s.optRefused.Add(1)
			} else {
				pf = tp
				u.Prog = tp.Program()
				u.Optimized = true
				u.OptimizedOps = r.Ops
			}
		}
	}
	if s.cfg.Quicken {
		// The quickened program goes back through the verifier: a bad
		// rewrite must never reach an engine.
		qf, n, err := pf.Quicken()
		if err != nil {
			return nil, Miss, err
		}
		if n > 0 {
			pf = qf
			u.Prog = qf.Program()
			u.Quickened = true
			u.QuickenedOps = n
		}
	}
	// Facts travel with the unit to disk, so a warm start skips the
	// abstract interpreter entirely.
	u.facts = pf.Facts()
	s.misses.Add(1)

	if s.cfg.Dir != "" {
		if err := s.persistDisk(u); err != nil {
			s.persistErrs.Add(1)
		} else {
			s.persisted.Add(1)
		}
	}
	return u, Miss, nil
}
