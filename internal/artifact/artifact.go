// Package artifact is the single home of everything the system derives
// from a program's immutable bytes: verification, quickened bytecode,
// vm.Analyze facts, and per-engine prepared blobs (static plans, AOT
// closure artifacts). All of it is a pure function of (bytes, policy),
// which is the whole premise of staging interpreter optimizations —
// derive once, content-address the result, reuse it everywhere, and
// let it survive restarts.
//
// The pieces:
//
//   - Unit: one program plus every artifact staged from it. Facts are
//     computed at most once (single-flight); Prepared(key, build)
//     gives engines a per-unit, per-policy slot with the same
//     compile-once guarantee, so two services sharing a unit share its
//     plans and two policies on one unit get distinct plans.
//   - Store: a bounded, content-addressed LRU of Units keyed by
//     (hash, policy fingerprint) with single-flight builds and an
//     optional on-disk tier (Config.Dir) that serializes quickened
//     bytecode and facts, checksum-verified on load, so a restarted
//     daemon warm-starts without recompiling or re-analyzing. A build
//     is base (compile and prove) or full (base plus optimize,
//     validate, quicken and persist); a base unit is promoted to the
//     full build once it has run PromoteSteps source steps or a caller
//     asks for the full unit.
//   - Of: the identity view engines use at run time. Every unit a
//     store publishes is registered by program pointer; Of(p) finds it
//     without hashing, and interns a bare unit for programs that never
//     went through a store (direct CLI and test use), so FactsFor and
//     the engines' prepared blobs always resolve to one place.
//
// Units are immutable once published and safe for concurrent use.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"stackcache/internal/vm"
)

// Unit is one program and the artifacts staged from it. Key is the
// store key ("" for bare identity-interned units); Prog is the program
// every consumer must execute — already quickened when the owning
// store quickens and the unit is a full one (Quickened/QuickenedOps
// record the rewrite).
type Unit struct {
	Key          string
	Prog         *vm.Program
	Quickened    bool
	QuickenedOps int

	// Optimized records that Prog derives from the proof-carrying
	// optimizer's rewrite of the produced program — adopted only after
	// vm.CheckTranslation independently certified it. OptimizedOps
	// counts the rewritten or deleted instruction slots per pass.
	Optimized    bool
	OptimizedOps [vm.NumOptPasses]int

	// base is set on a base unit only (see Store.GetOrBuildBase): it
	// serves the produced program, and a promotion resumes the
	// pipeline from its Proof.
	base *baseState

	factsOnce sync.Once
	facts     *vm.Facts

	prepMu   sync.Mutex
	prepared map[string]*prepEntry
}

// baseState is a base unit's Proof, its executed steps and its one
// promotion.
type baseState struct {
	proof *vm.Proof
	steps atomic.Int64

	// claimed is the compare-and-swap that lets exactly one lookup run
	// the promotion. done is closed once it has finished, after full
	// (nil when the promotion failed) and err are set.
	claimed atomic.Bool
	done    chan struct{}
	full    *Unit
	err     error
}

type prepEntry struct {
	once sync.Once
	v    any
	err  error
}

// maxPreparedPerUnit bounds the prepared-blob map of one unit; a
// pathological stream of distinct policies must not pin blobs forever.
// Like the old per-engine plan caches, overflow resets the map — the
// worst case is a recompile, never a wrong artifact.
const maxPreparedPerUnit = 32

func newUnit(key string, p *vm.Program) *Unit {
	return &Unit{Key: key, Prog: p}
}

// AddSteps records n instructions executed on the unit. Only a base
// unit keeps the count, which decides its promotion; its program is the
// produced one, so these are source steps.
func (u *Unit) AddSteps(n int64) {
	if u.base != nil {
		u.base.steps.Add(n)
	}
}

// Facts returns the unit's vm.Analyze result, computing it at most
// once. Units a store builds arrive with the facts its build proved,
// and units loaded from the disk tier with the facts that traveled
// with the bytes; neither recomputes.
func (u *Unit) Facts() *vm.Facts {
	u.factsOnce.Do(func() {
		if u.facts == nil {
			u.facts = vm.Analyze(u.Prog)
		}
	})
	return u.facts
}

// Prepared returns the engine-prepared blob stored under key, building
// it at most once per (unit, key) even under concurrent callers. The
// key must identify the artifact's full provenance — engine name plus
// the policy fingerprint that shaped it — so distinct policies on one
// program get distinct blobs instead of the first caller's.
func (u *Unit) Prepared(key string, build func() (any, error)) (any, error) {
	u.prepMu.Lock()
	e, ok := u.prepared[key]
	if !ok {
		if u.prepared == nil || len(u.prepared) >= maxPreparedPerUnit {
			u.prepared = make(map[string]*prepEntry)
		}
		e = &prepEntry{}
		u.prepared[key] = e
	}
	u.prepMu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}

// SourceHash is the canonical content address for (compile options,
// source) pairs: hex SHA-256 over the options' cache key, a zero
// separator, and the source. The service's program cache and the CLIs
// share it, so a forthvm -cachedir can warm-start from a vmd cache
// directory (and vice versa) when their options and quicken settings
// agree.
func SourceHash(optKey, src string) string {
	var b [2 * sha256.Size]byte
	return string(appendSourceHash(b[:0], optKey, src))
}

// sourcePrefix marks a store key as a source program's.
const sourcePrefix = "src:"

// SourceKey returns the store key the service and forthvm cache a
// source program under, "src:" followed by SourceHash(optKey, src),
// and that hash, which is the key's suffix: both strings share one
// allocation.
func SourceKey(optKey, src string) (key, hash string) {
	var b [len(sourcePrefix) + 2*sha256.Size]byte
	key = string(appendSourceHash(append(b[:0], sourcePrefix...), optKey, src))
	return key, key[len(sourcePrefix):]
}

// maxPooledHashInput bounds the hash inputs hashInputs keeps, so one
// large source does not pin its copy.
const maxPooledHashInput = 64 << 10

// hashInputs holds the buffers appendSourceHash lays a hash's input
// out in, so sha256.Sum256 hashes it in one call without a conversion
// of the strings or a heap-allocated digest.
var hashInputs = sync.Pool{New: func() any { return new([]byte) }}

// appendSourceHash appends SourceHash(optKey, src) to dst.
func appendSourceHash(dst []byte, optKey, src string) []byte {
	in := hashInputs.Get().(*[]byte)
	buf := append(append(append((*in)[:0], optKey...), 0), src...)
	sum := sha256.Sum256(buf)
	if cap(buf) <= maxPooledHashInput {
		*in = buf
		hashInputs.Put(in)
	}
	return hex.AppendEncode(dst, sum[:])
}

// maxIdentity bounds the program-pointer index. Programs are interned
// by every store publish and by Of on first sight; overflow resets the
// map (the successor units recompute lazily), mirroring the old
// engine-side facts cache's reset-on-overflow behavior.
const maxIdentity = 4096

var identity = struct {
	sync.Mutex
	m map[*vm.Program]*Unit
}{m: make(map[*vm.Program]*Unit)}

// Of returns the unit for p: the store-published unit when p came
// through a Store, otherwise a bare unit interned on first sight.
// Programs are keyed by identity — they are immutable once compiled,
// and the stores in front already deduplicate by content — so this is
// the zero-hashing path engines take on every Run.
func Of(p *vm.Program) *Unit {
	identity.Lock()
	defer identity.Unlock()
	if u, ok := identity.m[p]; ok {
		return u
	}
	if len(identity.m) >= maxIdentity {
		identity.m = make(map[*vm.Program]*Unit)
	}
	u := newUnit("", p)
	identity.m[p] = u
	return u
}

// registerIdentity publishes a store-built unit under its program
// pointer so Of resolves it without hashing. Latest wins: a store
// publish replaces any bare unit interned for the same pointer.
func registerIdentity(u *Unit) {
	identity.Lock()
	defer identity.Unlock()
	if len(identity.m) >= maxIdentity {
		identity.m = make(map[*vm.Program]*Unit)
	}
	identity.m[u.Prog] = u
}

// dropIdentity forgets an evicted or promoted unit's program pointer
// unless another unit has been published under it since; a later Of
// interns a fresh bare unit (recompute, never a stale artifact).
func dropIdentity(u *Unit) {
	identity.Lock()
	defer identity.Unlock()
	if identity.m[u.Prog] == u {
		delete(identity.m, u.Prog)
	}
}
