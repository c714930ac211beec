package stackcache

import (
	"testing"

	"stackcache/internal/artifact"
	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// TestSwitchResumesAfterStepLimit runs the switch interpreter in slices
// of k steps, restarting it after every step-limit stop, and requires
// the sliced run to end in the same error, snapshot and step count as
// one unbroken run. The compiled engine's single-step fallback is the
// k = 1 case: it runs switch under a one-step budget and continues at
// the pc switch stopped at. The programs are the paper suite and the
// micros in the form vmd serves (quickened and optimized), so slices
// also cut through superinstructions, which must de-fuse at a stop
// without changing the result.
func TestSwitchResumesAfterStepLimit(t *testing.T) {
	store := artifact.NewStore(artifact.Config{
		Quicken: true, Optimize: true, Fingerprint: "quicken=true,optimize=true",
	})
	opts := forth.Options{}
	quickened := false
	for _, w := range workloads.All() {
		u, _, err := store.GetOrBuild("src:"+artifact.SourceHash(opts.CacheKey(), w.Source),
			func() (*vm.Program, error) { return forth.CompileWithOptions(w.Source, opts) })
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		quickened = quickened || u.Quickened
		whole := interp.NewMachine(u.Prog)
		wantErr := interp.RunSwitch(whole)
		want := whole.Snapshot()
		for _, k := range []int64{1, 2, 3, 4096} {
			m := interp.NewMachine(u.Prog)
			var err error
			for {
				m.MaxSteps = m.Steps + k
				err = interp.RunSwitch(m)
				if re, ok := err.(*interp.RuntimeError); !ok || re.Msg != interp.MsgStepLimit {
					break
				}
			}
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Errorf("%s, k=%d: sliced run ended in %v, whole run in %v", w.Name, k, err, wantErr)
				continue
			}
			if got := m.Snapshot(); !want.Equal(got) || got.Steps != want.Steps || m.PC != whole.PC {
				t.Errorf("%s, k=%d: sliced run ended at pc %d after %d steps, whole run at pc %d after %d, or their states differ",
					w.Name, k, m.PC, got.Steps, whole.PC, want.Steps)
			}
		}
	}
	if !quickened {
		t.Error("no served program is quickened; no slice cuts a superinstruction")
	}
}
