package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stackcache/internal/engine"
	"stackcache/internal/workloads"
)

// fastOpt keeps experiment tests quick: micro workloads, small sweeps.
func fastOpt() Options {
	return Options{
		Workloads: []workloads.Workload{
			mustWorkload("fib"),
			mustWorkload("strrev"),
		},
		MaxRegs: 5,
	}
}

func mustWorkload(name string) workloads.Workload {
	w, ok := workloads.ByName(name)
	if !ok {
		panic("missing workload " + name)
	}
	return w
}

func TestFig18DataMatchesPaper(t *testing.T) {
	rows := Fig18Data()
	if len(rows) != 6 {
		t.Fatalf("%d organizations", len(rows))
	}
	if rows[0].Name != "minimal" || rows[0].Counts != [8]int64{2, 3, 4, 5, 6, 7, 8, 9} {
		t.Errorf("minimal row wrong: %+v", rows[0])
	}
	if rows[2].Counts[7] != 109601 {
		t.Errorf("arbitrary shuffles at 8 regs = %d", rows[2].Counts[7])
	}
}

func TestFig20Data(t *testing.T) {
	rows, err := Fig20Data(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Instructions == 0 || r.Loads <= 0 || r.Updates <= 0 {
			t.Errorf("%s: implausible stats %+v", r.Name, r)
		}
	}
}

func TestFig21Shape(t *testing.T) {
	rows, err := Fig21Data(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	// The paper's Fig. 21/26 shape: k=1 beats k=0; moves grow
	// monotonically; updates constant.
	if rows[1].Cycles >= rows[0].Cycles {
		t.Errorf("k=1 (%.3f) should beat k=0 (%.3f)", rows[1].Cycles, rows[0].Cycles)
	}
	for k := 1; k < len(rows); k++ {
		if rows[k].Moves < rows[k-1].Moves-1e-9 {
			t.Errorf("moves fell from k=%d to k=%d", k-1, k)
		}
		if rows[k].Updates != rows[0].Updates {
			t.Errorf("updates not constant at k=%d", k)
		}
		if rows[k].MemAccesses > rows[k-1].MemAccesses+1e-9 {
			t.Errorf("memory accesses rose from k=%d to k=%d", k-1, k)
		}
	}
}

func TestFig22Shape(t *testing.T) {
	opt := fastOpt()
	points, err := Fig22Data(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Triangular sweep: sum 1..MaxRegs points.
	want := opt.MaxRegs * (opt.MaxRegs + 1) / 2
	if len(points) != want {
		t.Fatalf("%d points, want %d", len(points), want)
	}
	// Best overhead per register count decreases (more registers never
	// hurt with the best followup).
	best := map[int]float64{}
	for _, p := range points {
		if v, ok := best[p.NRegs]; !ok || p.Overhead < v {
			best[p.NRegs] = p.Overhead
		}
	}
	for n := 2; n <= opt.MaxRegs; n++ {
		if best[n] > best[n-1]+1e-9 {
			t.Errorf("best overhead rose from %d to %d registers: %.4f -> %.4f",
				n-1, n, best[n-1], best[n])
		}
	}
	// All counters have dispatch == instructions (dynamic caching
	// cannot eliminate dispatches).
	for _, p := range points {
		if p.Counters.Dispatches != p.Counters.Instructions {
			t.Errorf("n=%d f=%d: dispatches != instructions", p.NRegs, p.OverflowTo)
		}
	}
}

func TestFig23Components(t *testing.T) {
	points, err := Fig23Data(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	// Fuller followup states spill less per overflow but overflow more
	// often; memory traffic shrinks as followup rises (Fig. 23's
	// memory line).
	first, last := points[0].Counters, points[len(points)-1].Counters
	if last.Loads+last.Stores > first.Loads+first.Stores {
		t.Errorf("memory traffic should fall toward full followup: %d -> %d",
			first.Loads+first.Stores, last.Loads+last.Stores)
	}
	if last.Overflows < first.Overflows {
		t.Errorf("overflows should rise toward full followup: %d -> %d",
			first.Overflows, last.Overflows)
	}
}

func TestFig24Fig25Shape(t *testing.T) {
	opt := fastOpt()
	points, err := Fig24Data(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		// Static caching eliminates some dispatches on these
		// workloads (both use stack manipulation words).
		if p.Counters.DispatchesSaved() <= 0 {
			t.Errorf("n=%d c=%d: no dispatches saved", p.NRegs, p.Canonical)
		}
	}
	p25, err := Fig25Data(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(p25) != 6 { // canonical 0..5 at MaxRegs 5
		t.Fatalf("%d fig25 points", len(p25))
	}
	// Moves grow with deeper canonical states (more reconciliation).
	if p25[len(p25)-1].Counters.Moves < p25[0].Counters.Moves {
		t.Error("moves should grow with canonical depth")
	}
}

func TestFig26Shape(t *testing.T) {
	rows, err := Fig26Data(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.NRegs != i+1 {
			t.Errorf("row %d regs %d", i, r.NRegs)
		}
		// Dynamic caching beats the constant-k regime everywhere (the
		// paper's central claim).
		if r.Dynamic >= r.ConstK {
			t.Errorf("n=%d: dynamic %.3f not better than constant-k %.3f",
				r.NRegs, r.Dynamic, r.ConstK)
		}
		// Static's net beats dynamic once it is applicable (dispatch
		// elimination at weight 4).
		if r.NRegs >= 3 && r.Static >= r.Dynamic {
			t.Errorf("n=%d: static %.3f not better than dynamic %.3f",
				r.NRegs, r.Static, r.Dynamic)
		}
	}
}

func TestWalkShape(t *testing.T) {
	rows, rises, err := WalkData(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // followup 3..10
		t.Fatalf("%d rows", len(rows))
	}
	// The random walk must react strongly to followup lowering; the
	// drop from followup 10 to 3 should be large.
	first, last := rows[0], rows[len(rows)-1]
	if first.OverflowTo != 3 || last.OverflowTo != 10 {
		t.Fatalf("unexpected followup range %d..%d", first.OverflowTo, last.OverflowTo)
	}
	if first.WalkOverflows*2 > last.WalkOverflows {
		t.Errorf("walk overflows should drop strongly: %d at f=3 vs %d at f=10",
			first.WalkOverflows, last.WalkOverflows)
	}
	// Real programs react much less (ratio closer to 1).
	if last.RealOverflows > 0 {
		realRatio := float64(first.RealOverflows) / float64(last.RealOverflows)
		walkRatio := float64(first.WalkOverflows) / float64(last.WalkOverflows)
		if realRatio < walkRatio {
			t.Errorf("real programs should react less than the walk: %.3f vs %.3f",
				realRatio, walkRatio)
		}
	}
	var total int64
	for _, v := range rises {
		total += v
	}
	if total == 0 {
		t.Error("no rise histogram data")
	}
}

func TestRegVMData(t *testing.T) {
	rows, err := RegVMData(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Output == "" {
			t.Errorf("%s: empty output", r.Name)
		}
		// Static caching beats the simple register VM on every
		// program (the paper's bottom line).
		if r.Static >= r.RegisterVM {
			t.Errorf("%s: static %.0f not better than register VM %.0f",
				r.Name, r.Static, r.RegisterVM)
		}
	}
	// The loop benchmark: the simple stack VM beats the register VM
	// (no spills, lower decode cost).
	for _, r := range rows {
		if r.Name == "sum" && r.SimpleStack >= r.RegisterVM {
			t.Errorf("sum: simple stack %.0f should beat register VM %.0f",
				r.SimpleStack, r.RegisterVM)
		}
	}
}

func TestUnfoldedData(t *testing.T) {
	rows := UnfoldedData(8)
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	// The paper's §2.3 numbers: 8 registers give 512 versions of a
	// three-register instruction.
	last := rows[len(rows)-1]
	if last.Registers != 8 || last.ThreeOpVersions != 512 {
		t.Errorf("unfolded at 8 regs: %+v", last)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TotalVersions <= rows[i-1].TotalVersions {
			t.Error("total versions must grow with registers")
		}
	}
}

func TestFig7Data(t *testing.T) {
	rows, err := Fig7Data(Options{Workloads: []workloads.Workload{mustWorkload("fib")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(engine.All()) {
		t.Fatalf("%d rows, want one per registered engine (%d)", len(rows), len(engine.All()))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Engine] = true
		if r.NsPerInst <= 0 || r.Relative < 1 {
			t.Errorf("%v: implausible timing %+v", r.Engine, r)
		}
	}
	for _, name := range []string{"switch", "token", "threaded"} {
		if !seen[name] {
			t.Errorf("baseline engine %q missing from Fig. 7 rows", name)
		}
	}
}

// TestAllWritersProduceOutput runs every registered experiment under
// fastOpt and compares its output with testdata/<id>.golden, so a
// change to any engine's cost accounting or to an experiment's
// arithmetic shows as a byte difference. Fig. 7 is the only entry
// measured in wall clock; it is checked for rows only.
func TestAllWritersProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpt()
	for _, e := range Registry {
		var buf bytes.Buffer
		if err := e.Run(&buf, opt); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("%s: empty output", e.ID)
		}
		if !strings.Contains(buf.String(), "\n") {
			t.Errorf("%s: output has no rows", e.ID)
		}
		if e.ID == "7" {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", e.ID+".golden"))
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if got := buf.String(); got != string(want) {
			t.Errorf("%s differs from testdata/%s.golden:\ngot\n%s\nwant\n%s", e.ID, e.ID, got, want)
		}
	}
}

func TestByIDRegistry(t *testing.T) {
	if _, ok := ByID("22"); !ok {
		t.Error("fig 22 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id found")
	}
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}
