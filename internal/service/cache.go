package service

import (
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
// when set. Compile options are in the source hash already; the
// store's default fingerprint adds quickening and optimization, so a
// -quicken=false or -optimize=false restart is not served rewritten
// units.
func newStore(cfg Config) *artifact.Store {
	return artifact.NewStore(artifact.Config{
		MaxUnits: cfg.CacheSize,
		Dir:      cfg.CacheDir,
		Quicken:  cfg.Quicken,
		Optimize: cfg.Optimize,
	})
}

// lookup returns src's content address and its unit from the program
// cache. With full unset (a /run), a miss makes a base build and a hit
// serves the resident unit, promoting a base unit that has run
// artifact.PromoteSteps source steps; with full set (a /compile), it
// returns the full unit, building or promoting it. The store
// single-flights concurrent builds, caches only programs that passed
// the verifier and counts how each lookup was served. The service
// counts what the store does not: failed lookups, and the quickened
// and optimized programs among full builds from source and promotions
// (a unit served from the disk tier was counted by the process that
// built it).
func (s *Service) lookup(src string, full bool) (key string, u *artifact.Unit, hit bool, err error) {
	storeKey, key := artifact.SourceKey(s.optKey, src)
	produce := func() (*vm.Program, error) {
		if s.onCompile != nil {
			s.onCompile(src)
		}
		return forth.CompileWithOptions(src, s.cfg.CompileOptions)
	}
	var outcome artifact.Outcome
	if full {
		u, outcome, err = s.store.GetOrBuild(storeKey, produce)
	} else {
		u, outcome, err = s.store.GetOrBuildBase(storeKey, produce)
	}
	switch {
	case err != nil:
		s.count(func(m *Snapshot) { m.CacheMisses++ })
		return key, nil, false, err
	case (outcome == artifact.Miss || outcome == artifact.Promoted) && (u.Quickened || u.Optimized):
		s.count(func(m *Snapshot) {
			if u.Quickened {
				m.QuickenedPrograms++
				m.QuickenedOps += int64(u.QuickenedOps)
			}
			if u.Optimized {
				m.OptimizedPrograms++
				for pass, n := range u.OptimizedOps {
					m.OptimizedOps[vm.OptPass(pass).String()] += int64(n)
				}
			}
		})
	}
	return key, u, outcome != artifact.Miss && outcome != artifact.DiskHit, nil
}
