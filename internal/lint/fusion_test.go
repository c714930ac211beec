package lint

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"
)

// fusionEnumSrc is a toy VM: an opcode enumeration, an effects table
// and a fusion table, shaped like internal/vm's.
const fusionEnumSrc = `package toy

type Opcode uint8

const (
	OpLit Opcode = iota
	OpFetch
	OpAdd
	OpBranch
	OpQLitFetch
	NumOpcodes
)

type Effect struct {
	In, Out, RIn, ROut int
	Map                []int
	Control            bool
	MemStack           bool
	Arg                int
}

type Fusion struct {
	Super  Opcode
	Seq    []Opcode
	Shrink bool
}
`

func checkFusionToy(t *testing.T, extra string) []Issue {
	t.Helper()
	fset := token.NewFileSet()
	dirs := parseSrc(t, fset, "toy", "enum.go", fusionEnumSrc)
	f2 := parseSrc(t, fset, "toy", "extra.go", "package toy\n"+extra)
	dirs["toy"] = append(dirs["toy"], f2["toy"]...)
	return Check(fset, dirs)
}

const goodTables = `
var effects = [NumOpcodes]Effect{
	OpLit:      {Out: 1, Arg: 1},
	OpFetch:    {In: 1, Out: 1},
	OpAdd:      {In: 2, Out: 1},
	OpBranch:   {Control: true, Arg: 2},
	OpQLitFetch: {Out: 1, Arg: 1},
}
`

func TestFusionTableClean(t *testing.T) {
	issues := checkFusionToy(t, goodTables+`
var Fusions = []Fusion{
	{Super: OpQLitFetch, Seq: []Opcode{OpLit, OpFetch}},
}
`)
	if len(issues) != 0 {
		t.Fatalf("consistent fusion table flagged: %v", issues)
	}
}

// TestFusionSuperEffectMismatch seeds the violation the rule exists
// for: a super whose declared effect differs from its first
// constituent's breaks the quickening contract (a super observably IS
// its first constituent) and must be flagged.
func TestFusionSuperEffectMismatch(t *testing.T) {
	issues := checkFusionToy(t, `
var effects = [NumOpcodes]Effect{
	OpLit:      {Out: 1, Arg: 1},
	OpFetch:    {In: 1, Out: 1},
	OpAdd:      {In: 2, Out: 1},
	OpBranch:   {Control: true, Arg: 2},
	OpQLitFetch: {In: 1, Out: 1},
}
var Fusions = []Fusion{
	{Super: OpQLitFetch, Seq: []Opcode{OpLit, OpFetch}},
}
`)
	if len(issues) != 1 || !strings.Contains(issues[0].Msg, "differs from first constituent OpLit") {
		t.Fatalf("issues = %v, want one effect-mismatch issue", issues)
	}
}

func TestFusionControlConstituent(t *testing.T) {
	issues := checkFusionToy(t, goodTables+`
var Fusions = []Fusion{
	{Super: OpQLitFetch, Seq: []Opcode{OpLit, OpBranch}},
}
`)
	if len(issues) != 1 || !strings.Contains(issues[0].Msg, "OpBranch") {
		t.Fatalf("issues = %v, want one control-constituent issue", issues)
	}
}

func TestFusionShrinkRuleExemptFromSuperMatch(t *testing.T) {
	// A Shrink rule's super is a standalone instruction with its own
	// semantics (lit-add: In 1, Out 1) — it must NOT be held to the
	// first constituent's effect, only its constituents are checked.
	issues := checkFusionToy(t, `
var effects = [NumOpcodes]Effect{
	OpLit:      {Out: 1, Arg: 1},
	OpFetch:    {In: 1, Out: 1},
	OpAdd:      {In: 2, Out: 1},
	OpBranch:   {Control: true, Arg: 2},
	OpQLitFetch: {In: 1, Out: 1, Arg: 1},
}
var Fusions = []Fusion{
	{Super: OpQLitFetch, Seq: []Opcode{OpLit, OpAdd}, Shrink: true},
}
`)
	if len(issues) != 0 {
		t.Fatalf("shrink rule flagged: %v", issues)
	}
}

// TestRealFusionTableMismatchFails is the real-tree half of the gate:
// perturbing one super's effects entry in internal/vm must be flagged.
func TestRealFusionTableMismatchFails(t *testing.T) {
	fset := token.NewFileSet()
	dirs, err := LoadTree(fset, "../..")
	if err != nil {
		t.Fatal(err)
	}

	mutated := 0
	for dir, files := range dirs {
		if !strings.HasSuffix(strings.ReplaceAll(dir, "\\", "/"), "internal/vm") {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				kv, ok := n.(*ast.KeyValueExpr)
				if !ok {
					return true
				}
				if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "OpQAddCFetch" {
					return true
				}
				val, ok := kv.Value.(*ast.CompositeLit)
				if !ok {
					return true
				}
				// OpQAddCFetch is {In: 2, Out: 1} (= OpAdd); adding RIn
				// breaks the super-equals-first-constituent contract.
				val.Elts = append(val.Elts, &ast.KeyValueExpr{
					Key:   &ast.Ident{Name: "RIn"},
					Value: &ast.BasicLit{Kind: token.INT, Value: "1"},
				})
				mutated++
				return true
			})
		}
	}
	if mutated == 0 {
		t.Fatal("found no OpQAddCFetch effects entry to perturb in internal/vm")
	}

	found := false
	for _, issue := range Check(fset, dirs) {
		if strings.Contains(issue.Msg, "OpQAddCFetch") && strings.Contains(issue.Msg, "differs") {
			found = true
		}
	}
	if !found {
		t.Fatal("perturbing OpQAddCFetch's effect produced no fusion issue")
	}
}

// TestPassLabelTableIncomplete seeds the optimizer-pass metric rule's
// violation: a [NumOptPasses]string label table missing a pass must be
// flagged, exactly what guards vm's pass names and with them the
// service's vmd_optimized_ops_total label set.
func TestPassLabelTableIncomplete(t *testing.T) {
	fset := token.NewFileSet()
	dirs := parseSrc(t, fset, "toy", "enum.go", `package toy

type OptPass uint8

const (
	PassInline OptPass = iota
	PassConstFold
	PassDCE
	NumOptPasses
)

var labels = [NumOptPasses]string{
	PassInline:    "inline",
	PassConstFold: "constfold",
}
`)
	issues := Check(fset, dirs)
	if len(issues) != 1 || !strings.Contains(issues[0].Msg, "PassDCE") {
		t.Fatalf("issues = %v, want one missing-PassDCE issue", issues)
	}
}

// TestDeletedPassLabelFails is the real-tree half: deleting one pass
// label from vm's optPassNames, the table vm.OptPass.String and so the
// service's vmd_optimized_ops_total labels read, turns the build red,
// so a new optimizer pass cannot ship without a metric label.
func TestDeletedPassLabelFails(t *testing.T) {
	fset := token.NewFileSet()
	dirs, err := LoadTree(fset, "../..")
	if err != nil {
		t.Fatal(err)
	}

	removed := 0
	for dir, files := range dirs {
		if !strings.HasSuffix(strings.ReplaceAll(dir, "\\", "/"), "internal/vm") {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				var kept []ast.Expr
				for _, el := range cl.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "PassPeephole" {
							removed++
							continue
						}
					}
					kept = append(kept, el)
				}
				cl.Elts = kept
				return true
			})
		}
	}
	if removed == 0 {
		t.Fatal("found no PassPeephole keyed entry to delete in internal/vm")
	}

	found := false
	for _, issue := range Check(fset, dirs) {
		if strings.Contains(issue.Msg, "PassPeephole") {
			found = true
		}
	}
	if !found {
		t.Fatal("deleting the peephole pass label produced no issue")
	}
}

// TestDeletedStatusCaseFails pins the error-class dispatch gate:
// removing the ClassOK arm from vmd's status mapping must be flagged
// (7 of 8 classes is a dispatch switch that lost coverage).
func TestDeletedStatusCaseFails(t *testing.T) {
	fset := token.NewFileSet()
	dirs, err := LoadTree(fset, "../..")
	if err != nil {
		t.Fatal(err)
	}

	removed := 0
	for dir, files := range dirs {
		if !strings.HasSuffix(strings.ReplaceAll(dir, "\\", "/"), "cmd/vmd") {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				var kept []ast.Stmt
				for _, stmt := range sw.Body.List {
					if cc, ok := stmt.(*ast.CaseClause); ok && caseNames(cc)["ClassOK"] {
						removed++
						continue
					}
					kept = append(kept, stmt)
				}
				sw.Body.List = kept
				return true
			})
		}
	}
	if removed == 0 {
		t.Fatal("found no ClassOK case arm to delete in cmd/vmd")
	}

	found := false
	for _, issue := range Check(fset, dirs) {
		if strings.Contains(issue.Msg, "ClassOK") {
			found = true
		}
	}
	if !found {
		t.Fatal("deleting the ClassOK status arm produced no issue")
	}
}
