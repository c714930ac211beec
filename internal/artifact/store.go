package artifact

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"stackcache/internal/vm"
)

// Outcome says how a GetOrBuild or GetOrBuildBase was satisfied.
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
	// Promoted: the lookup found a base unit due for promotion and ran
	// the stages of the full build after vm.Prove.
	Promoted
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
	case Promoted:
		return "promoted"
	}
	return "unknown"
}

// Config shapes a Store.
type Config struct {
	// MaxUnits bounds the in-memory LRU; <1 means 512.
	MaxUnits int
	// Dir, when non-empty, enables the on-disk tier: every full unit
	// is persisted there and lookups consult it on memory miss. Base
	// units never touch the disk.
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
	// quickened units. Empty means the one Quicken and Optimize
	// determine, "quicken=<bool>,optimize=<bool>".
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
	promoted    atomic.Int64
	optRefused  atomic.Int64
}

// PromoteSteps is the number of source steps a base unit executes
// before a lookup promotes it to the full build. It is the measured
// break-even: on 2,000 generated cold programs (2-vCPU VM, Go 1.24.0,
// one pinned CPU) the full build took a median 118 µs more than the
// base build, and the full unit saved 4.6 µs per run of 2,580 source
// steps, 1.8 ns per source step; 118 µs / 1.8 ns is about 66,000 steps.
// A program that runs once never gets there: vmbench's generator keeps
// cold programs under about 12,000 steps.
const PromoteSteps = 1 << 16

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

	// Promoted counts base units promoted to the full build. A
	// promotion is not a hit, a miss or an eviction.
	Promoted int64 `json:"promoted"`

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
	if cfg.Fingerprint == "" {
		cfg.Fingerprint = "quicken=" + strconv.FormatBool(cfg.Quicken) +
			",optimize=" + strconv.FormatBool(cfg.Optimize)
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
		Promoted:          s.promoted.Load(),
		OptimizeRefused:   s.optRefused.Load(),
	}
}

// Len reports the number of resident units.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// GetOrBuild returns the full unit for hash, staging through the
// tiers: memory LRU, in-flight build join, disk (when configured), and
// finally the full build (see build). A resident or joined base unit
// is promoted first; a failed promotion's error is returned here, while
// GetOrBuildBase keeps serving the base unit. The full store key is
// (hash, Fingerprint). Failed builds are never cached; concurrent
// callers for one key share a single build and its error.
func (s *Store) GetOrBuild(hash string, produce func() (*vm.Program, error)) (*Unit, Outcome, error) {
	return s.get(hash, produce, true)
}

// GetOrBuildBase is GetOrBuild for a caller that will run the unit
// once: on a miss it makes a base build, which stops after vm.Prove.
// On a hit it returns whatever unit is resident, promoting a base unit
// that has executed PromoteSteps source steps. Only the lookup that
// promotes waits for the promotion; concurrent ones get the base unit.
func (s *Store) GetOrBuildBase(hash string, produce func() (*vm.Program, error)) (*Unit, Outcome, error) {
	return s.get(hash, produce, false)
}

func (s *Store) get(hash string, produce func() (*vm.Program, error), full bool) (*Unit, Outcome, error) {
	key := hash + "|" + s.cfg.Fingerprint

	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		u := el.Value.(*Unit)
		s.mu.Unlock()
		return s.found(u, MemoryHit, full)
	}
	if fl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, Coalesced, fl.err
		}
		return s.found(fl.unit, Coalesced, full)
	}
	fl := &inflightUnit{done: make(chan struct{})}
	s.inflight[key] = fl
	s.mu.Unlock()

	fl.unit, fl.outcome, fl.err = s.build(key, produce, full)

	var evicted []*Unit
	s.mu.Lock()
	delete(s.inflight, key)
	if fl.err == nil {
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
	s.mu.Unlock()
	close(fl.done)

	if fl.err == nil {
		registerIdentity(fl.unit)
	}
	for _, u := range evicted {
		dropIdentity(u)
	}
	return fl.unit, fl.outcome, fl.err
}

// found completes a lookup that found u resident or joined its build,
// counting it as out. A base unit is promoted when the caller asked for
// the full unit or the unit has executed PromoteSteps source steps. The
// lookup that wins the unit's compare-and-swap runs the promotion and
// counts as Promoted instead. Other callers asking for the full unit
// wait for that promotion; the rest keep the base unit, as every
// caller does when a promotion fails.
func (s *Store) found(u *Unit, out Outcome, full bool) (*Unit, Outcome, error) {
	if b := u.base; b != nil && (full || b.steps.Load() >= PromoteSteps) {
		if b.claimed.CompareAndSwap(false, true) {
			f, err := s.promote(u)
			if err == nil {
				s.promoted.Add(1)
				return f, Promoted, nil
			}
			if full {
				return nil, out, err
			}
		} else if full {
			<-b.done
			if b.full == nil {
				return nil, out, b.err
			}
			u = b.full
		}
	}
	if out == MemoryHit {
		s.memoryHits.Add(1)
	} else {
		s.coalesced.Add(1)
	}
	return u, out, nil
}

// promote runs the full build's remaining stages on base unit b and
// swaps the full unit into b's LRU element: later lookups get it, and
// requests in flight keep b. A unit evicted before its promotion is
// not put back. b's identity is dropped as an evicted unit's is.
func (s *Store) promote(b *Unit) (*Unit, error) {
	st := b.base
	defer close(st.done)
	f, err := s.finish(b.Key, st.proof)
	if err != nil {
		st.err = err
		return nil, err
	}
	st.full = f
	s.mu.Lock()
	el, ok := s.byKey[b.Key]
	swapped := ok && el.Value == b
	if swapped {
		el.Value = f
	}
	s.mu.Unlock()
	if swapped {
		dropIdentity(b)
		registerIdentity(f)
	}
	return f, nil
}

// build resolves a key miss: disk first (when configured), then the
// produce callback and the pipeline, which proves each distinct
// program it derives exactly once. The base build stops after
// prove:
//
//   - prove: vm.Prove verifies and analyzes the produced program p; a
//     verify error fails the build.
//
// The full build continues with the stages of finish.
func (s *Store) build(key string, produce func() (*vm.Program, error), full bool) (*Unit, Outcome, error) {
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
	var u *Unit
	if full {
		if u, err = s.finish(key, pf); err != nil {
			return nil, Miss, err
		}
	} else {
		u = newUnit(key, p)
		u.facts = pf.Facts()
		u.base = &baseState{proof: pf, done: make(chan struct{})}
	}
	s.misses.Add(1)
	return u, Miss, nil
}

// finish runs the stages of the full build after vm.Prove on pf, the
// produced program's Proof, and returns the full unit:
//
//   - optimize+validate (Config.Optimize, p depth-proven): the
//     untrusted optimizer proposes a rewrite t, and
//     vm.ProveTranslation, given p's Proof, verifies, analyzes and
//     validates t. A refusal is counted and p is served.
//   - quicken (Config.Quicken): Proof.Quicken plants superinstructions
//     in the program to serve and verifies the result; the facts carry
//     over unchanged.
//   - persist (Config.Dir): the unit is written to the disk tier.
//
// The unit's facts are those of the last Proof, so the served program
// is never analyzed twice.
func (s *Store) finish(key string, pf *vm.Proof) (*Unit, error) {
	u := newUnit(key, pf.Program())
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
			return nil, err
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

	if s.cfg.Dir != "" {
		if err := s.persistDisk(u); err != nil {
			s.persistErrs.Add(1)
		} else {
			s.persisted.Add(1)
		}
	}
	return u, nil
}
