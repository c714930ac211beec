package vm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"stackcache/internal/forth"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// joinOps are drawn for one random instruction in three: calls,
// branches, loops and pushes inside them are what create joins, word
// contexts and widened bounds, the places where a worklist's visiting
// order can show.
var joinOps = []vm.Opcode{
	vm.OpCall, vm.OpCall, vm.OpBranch, vm.OpBranchZero, vm.OpExit,
	vm.OpLit, vm.OpDup, vm.OpDo, vm.OpLoop,
}

// randomProgram returns the seeded random program of the determinism
// and golden corpora: random opcodes with in-range targets, OpHalt
// last and a random entry. It returns nil for a program that fails
// Validate.
func randomProgram(seed int64) *vm.Program {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(47)
	code := make([]vm.Instr, n)
	for pc := 0; pc < n-1; pc++ {
		op := vm.Opcode(rng.Intn(int(vm.NumOpcodes)))
		if rng.Intn(3) == 0 {
			op = joinOps[rng.Intn(len(joinOps))]
		}
		ins := vm.Instr{Op: op}
		switch vm.EffectOf(op).Arg {
		case vm.ArgTarget:
			ins.Arg = vm.Cell(rng.Intn(n))
		case vm.ArgValue:
			ins.Arg = vm.Cell(rng.Intn(9) - 2)
		}
		code[pc] = ins
	}
	code[n-1] = vm.Instr{Op: vm.OpHalt}
	p := &vm.Program{Code: code, Entry: rng.Intn(n), MemSize: 64}
	if p.Validate() != nil {
		return nil
	}
	return p
}

type namedProgram struct {
	name string
	prog *vm.Program
}

// namedPrograms compiles the paper suite, the micro benchmarks and
// every Forth source in examples/: each string literal there that
// compiles is one program.
func namedPrograms(t *testing.T) []namedProgram {
	t.Helper()
	var out []namedProgram
	for _, w := range workloads.All() {
		p, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedProgram{"workload/" + w.Name, p})
	}
	files, err := filepath.Glob("../../examples/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example sources found: %v", err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if p, err := forth.Compile(src); err == nil {
				k++
				name := fmt.Sprintf("examples/%s.%d", filepath.Base(filepath.Dir(file)), k)
				out = append(out, namedProgram{name, p})
			}
			return true
		})
	}
	return out
}

// TestAnalyzeDeterministic analyzes every program of the corpus
// several times and requires identical Facts, violations and widened
// bounds included.
func TestAnalyzeDeterministic(t *testing.T) {
	const seeds, calls = 2000, 5
	progs := namedPrograms(t)
	for seed := int64(0); seed < seeds; seed++ {
		if p := randomProgram(seed); p != nil {
			progs = append(progs, namedProgram{fmt.Sprintf("seed %d", seed), p})
		}
	}
	differ := 0
	for _, np := range progs {
		first := vm.Analyze(np.prog)
		for k := 1; k < calls; k++ {
			if f := vm.Analyze(np.prog); !reflect.DeepEqual(f, first) {
				differ++
				if differ <= 5 {
					t.Errorf("%s: call %d returned different facts", np.name, k+1)
				}
				break
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d programs analyzed differently across %d calls", differ, len(progs), calls)
	}
}

// goldenFile pins Analyze's results; goldenSeeds random programs are
// pinned in blocks of goldenBlock seeds.
const (
	goldenFile  = "testdata/analyze_golden.txt"
	goldenSeeds = 20000
	goldenBlock = 1000
)

const goldenHeader = `# vm.Analyze results pinned per program: "proved" with a digest of the
# full Facts, or "unproven" (the verdict only). Seeded random programs
# are pinned per block of seeds: the proved count and a digest over each
# seed's result. Regenerate by deleting this file and running
#   go test -run TestAnalyzeMatchesGolden ./internal/vm
`

// factsDigest hashes everything Facts records.
func factsDigest(f *vm.Facts) string {
	h := sha256.New()
	fmt.Fprintf(h, "%t %d %d %d %d\n", f.Proved, f.MaxDepth, f.MaxRDepth, f.DepthCap, f.RDepthCap)
	for pc, x := range f.PCs {
		fmt.Fprintf(h, "%d %t %d %d %d %d\n", pc, x.Reachable, x.Depth.Lo, x.Depth.Hi, x.RDepth.Lo, x.RDepth.Hi)
	}
	for _, v := range f.Violations {
		fmt.Fprintln(h, v)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func verdict(f *vm.Facts) string {
	if f.Proved {
		return "proved " + factsDigest(f)
	}
	return "unproven"
}

// goldenLines computes the golden file's entries, keyed by their
// first field.
func goldenLines(t *testing.T) []string {
	var lines []string
	for _, np := range namedPrograms(t) {
		lines = append(lines, np.name+" "+verdict(vm.Analyze(np.prog)))
	}
	for lo := int64(0); lo < goldenSeeds; lo += goldenBlock {
		h := sha256.New()
		proved := 0
		for seed := lo; seed < lo+goldenBlock; seed++ {
			p := randomProgram(seed)
			if p == nil {
				fmt.Fprintf(h, "%d invalid\n", seed)
				continue
			}
			f := vm.Analyze(p)
			if f.Proved {
				proved++
			}
			fmt.Fprintf(h, "%d %s\n", seed, verdict(f))
		}
		lines = append(lines, fmt.Sprintf("random/%d-%d proved %d %s",
			lo, lo+goldenBlock-1, proved, hex.EncodeToString(h.Sum(nil)[:8])))
	}
	return lines
}

// TestAnalyzeMatchesGolden holds Analyze to the results recorded in
// goldenFile: the same verdict on every program, and the same Facts on
// every proved one.
func TestAnalyzeMatchesGolden(t *testing.T) {
	got := goldenLines(t)
	data, err := os.ReadFile(goldenFile)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		content := goldenHeader + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenFile, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and run the test again", goldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			key, _, _ := strings.Cut(line, " ")
			want[key] = line
		}
	}
	for _, line := range got {
		key, _, _ := strings.Cut(line, " ")
		if w, ok := want[key]; !ok {
			t.Errorf("%s: not in %s", key, goldenFile)
		} else if w != line {
			t.Errorf("got  %s\nwant %s", line, w)
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("%s: in %s but no longer in the corpus", key, goldenFile)
	}
}
