package service

import (
	"strconv"

	"stackcache/internal/artifact"
	"stackcache/internal/forth"
	"stackcache/internal/vm"
)

// CacheKey computes the content address the program cache uses for a
// (options, source) pair. It is artifact.SourceHash, so a service's
// response keys line up with the artifact store's addressing (and with
// forthvm's, letting the CLIs warm-start from a vmd cache directory).
func CacheKey(src string, opt forth.Options) string {
	return artifact.SourceHash(opt.CacheKey(), src)
}

// newStore builds the service's program cache: one artifact.Store
// bounded to cfg.CacheSize units, with the disk tier at cfg.CacheDir
// when set.
func newStore(cfg Config) *artifact.Store {
	return artifact.NewStore(artifact.Config{
		MaxUnits: cfg.CacheSize,
		Dir:      cfg.CacheDir,
		Quicken:  cfg.Quicken,
		Optimize: cfg.Optimize,
		// The fingerprint completes the key: compile options are in
		// the source hash already, quickening and optimization are
		// not — and a -quicken=false or -optimize=false restart must
		// not be served rewritten units.
		Fingerprint: "quicken=" + strconv.FormatBool(cfg.Quicken) +
			",optimize=" + strconv.FormatBool(cfg.Optimize),
	})
}

// lookup returns src's content address and its unit from the program
// cache, building the unit on a miss; the store single-flights
// concurrent builds and caches only programs that passed the verifier.
// It counts the lookup: a memory hit or a joined build is a cache hit,
// a build or a disk load is a miss, and so is a failed build, which is
// never cached. Quickened- and optimized-program metrics count only
// true source builds: a unit served from the disk tier was counted by
// the process that built it.
func (s *Service) lookup(src string) (key string, u *artifact.Unit, hit bool, err error) {
	key = artifact.SourceHash(s.optKey, src)
	u, outcome, err := s.store.GetOrBuild("src:"+key, func() (*vm.Program, error) {
		if s.onCompile != nil {
			s.onCompile(src)
		}
		return forth.CompileWithOptions(src, s.cfg.CompileOptions)
	})
	m := &s.metrics
	switch {
	case err != nil:
		m.cacheMisses.Add(1)
		return key, nil, false, err
	case outcome == artifact.MemoryHit:
		m.cacheHits.Add(1)
		return key, u, true, nil
	case outcome == artifact.Coalesced:
		m.cacheCoalesced.Add(1)
		return key, u, true, nil
	}
	m.cacheMisses.Add(1)
	if outcome == artifact.Miss {
		if u.Quickened {
			m.quickenedPrograms.Add(1)
			m.quickenedOps.Add(int64(u.QuickenedOps))
		}
		if u.Optimized {
			m.optimizedPrograms.Add(1)
			for pass, n := range u.OptimizedOps {
				m.optimizedOps[pass].Add(int64(n))
			}
		}
	}
	return key, u, false, nil
}
