// Command forthvm compiles and runs a Forth program on the virtual
// stack machine under a selectable execution engine, printing the
// program's output and, on request, execution statistics.
//
// Usage:
//
//	forthvm prog.fs                          # switch-dispatch baseline
//	forthvm -engine threaded prog.fs
//	forthvm -engine dynamic -regs 6 -overflow 5 prog.fs
//	forthvm -engine static -regs 6 -canonical 2 -stats prog.fs
//	forthvm -args 30,12 sum.fs               # seed the initial stack
//	forthvm -workload gray -stats            # run a built-in workload
//	forthvm -disasm prog.fs                  # show the compiled code
//	echo ': main 1 2 + . ;' | forthvm -
//
// The engine set comes from the engine registry; -engine accepts any
// registered name (forthvm -h lists them).
//
// Superinstruction flags compose, and neither changes observable
// behavior (output, stack, step count, error class):
//
//   - -super is the front-end peephole: "literal +" compiles to the
//     standalone lit-add opcode and the program shrinks by one
//     instruction per site (visible in -disasm and -stats).
//   - -quicken is the cache-time rewrite vmd applies: after
//     verification the program is re-written in place to the
//     profile-mined superinstructions of vm.Fusions and re-verified.
//     Code length and step counts are unchanged — a fused sequence
//     still counts one step per constituent — so -stats matches the
//     unquickened run instruction for instruction.
//
// The two passes share the vm.Fusions table: a pair the peephole
// consumed is gone before quickening, and nothing fuses twice.
//
// -optimize runs the cache-time proof-carrying optimizer: verified,
// depth-proved programs are rewritten (constant folding, branch
// folding, inlining, peepholes, dead-code elimination) and the rewrite
// is used only when the independent translation validator
// (vm.CheckTranslation) proves it observably equivalent to the
// compiled source program — same output, stack, memory and error
// class, in no more steps. Unprovable programs (recursion) and refused
// rewrites run unoptimized. With -disasm, -optimize annotates each
// source pc with its fate (kept/rewritten/folded/dead).
//
// With -cachedir the compiled artifact (optimized and/or quickened
// bytecode plus its analysis facts, checksummed) is persisted to the
// named directory and reused on later runs, skipping the
// compile/verify/optimize/quicken/analyze pipeline entirely. The
// on-disk format and keying match vmd's -cachedir, so the CLIs can
// share a directory when their compile options and -quicken and
// -optimize settings agree.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"stackcache/internal/artifact"
	"stackcache/internal/core"
	"stackcache/internal/engine"
	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/statcache"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

func main() {
	var (
		engineName = flag.String("engine", "switch",
			"execution engine: "+strings.Join(engine.Names(), "|"))
		regs      = flag.Int("regs", 6, "cache registers (dynamic/rotating/twostacks/static)")
		overflow  = flag.Int("overflow", 5, "overflow followup state (dynamic/rotating)")
		canonical = flag.Int("canonical", 2, "canonical state depth (static)")
		stats     = flag.Bool("stats", false, "print execution statistics")
		disasm    = flag.Bool("disasm", false, "print disassembly instead of running")
		workload  = flag.String("workload", "", "run a built-in workload by name")
		argList   = flag.String("args", "", "comma-separated initial data stack, bottom first")
		super     = flag.Bool("super", false, "compile with front-end superinstruction fusion (lit-add)")
		quicken   = flag.Bool("quicken", false, "quicken the verified program to profile-mined superinstructions")
		optimize  = flag.Bool("optimize", false, "optimize the verified program, keeping only validator-certified rewrites")
		cacheDir  = flag.String("cachedir", "", "read/write compiled artifacts in this directory (shareable with vmd)")
	)
	flag.Parse()

	src, name, err := loadSource(*workload, flag.Args())
	if err != nil {
		fail(err)
	}
	args, err := parseArgs(*argList)
	if err != nil {
		fail(err)
	}
	// Compile through the shared artifact pipeline: verify gate,
	// optional validated optimization, optional quickening
	// (re-verified), analysis facts — and, with -cachedir, the on-disk
	// tier. The store's default fingerprint is the one vmd's service
	// uses, so the two CLIs can share a cache directory when their
	// compile options and -quicken and -optimize settings agree.
	opts := forth.Options{Superinstructions: *super}
	store := artifact.NewStore(artifact.Config{
		Dir:      *cacheDir,
		Quicken:  *quicken,
		Optimize: *optimize,
	})
	key, _ := artifact.SourceKey(opts.CacheKey(), src)
	unit, outcome, err := store.GetOrBuild(key,
		func() (*vm.Program, error) { return forth.CompileWithOptions(src, opts) },
	)
	if err != nil {
		fail(err)
	}
	prog := unit.Prog
	if *disasm {
		if *engineName == "static" {
			plan, err := statcache.Compile(prog, statcache.Policy{NRegs: *regs, Canonical: *canonical})
			if err != nil {
				fail(err)
			}
			fmt.Print(statcache.Disassemble(plan))
			return
		}
		if *optimize && unit.Optimized {
			// The unit holds only the optimized program; recompile the
			// source and redo the (deterministic) rewrite to recover the
			// per-pc fate annotations for the listing.
			if src2, err := forth.CompileWithOptions(src, opts); err == nil {
				if r := vm.Optimize(src2); r.Changed {
					fmt.Print(vm.DisassembleOpt(r))
					return
				}
			}
		}
		fmt.Print(vm.Disassemble(prog))
		return
	}

	// One engine set built from the policy flags; every registered
	// engine is runnable with no per-engine code here. Engines whose
	// policies are baked in at generation time simply ignore the flags.
	pol := engine.DefaultPolicies()
	pol.Dynamic = core.MinimalPolicy{NRegs: *regs, OverflowTo: *overflow}
	pol.Rotating = core.RotatingPolicy{NRegs: *regs, OverflowTo: *overflow}
	pol.Static = statcache.Policy{NRegs: *regs, Canonical: *canonical}
	engines, err := engine.AllWith(pol)
	if err != nil {
		fail(err)
	}
	var eng engine.Engine
	for _, e := range engines {
		if e.Name() == *engineName {
			eng = e
			break
		}
	}
	if eng == nil {
		fail(fmt.Errorf("unknown engine %q (want one of %v)", *engineName, engine.Names()))
	}

	m := interp.NewMachine(prog)
	if err := m.ApplySpec(interp.ExecSpec{Args: args}); err != nil {
		fail(err)
	}
	var counters core.Counters
	counted := false
	if ce, ok := eng.(engine.CountingEngine); ok && *stats {
		counters, err = ce.RunCounted(m)
		counted = true
	} else {
		err = eng.Run(m)
	}
	os.Stdout.Write(m.Out.Bytes())
	if err != nil {
		fail(err)
	}
	if *stats {
		if counted {
			fmt.Fprintf(os.Stderr, "\n%s: %s\n  access overhead %.3f cycles/inst\n",
				name, counters.String(), counters.AccessPerInstruction(core.DefaultCost))
		} else {
			fmt.Fprintf(os.Stderr, "\n%s: %d instructions (%s)\n", name, m.Steps, eng.Name())
		}
		fmt.Fprintf(os.Stderr, "  artifact: %s", outcome)
		if unit.Optimized {
			total := 0
			for _, n := range unit.OptimizedOps {
				total += n
			}
			fmt.Fprintf(os.Stderr, ", optimized (%d ops", total)
			for pass, n := range unit.OptimizedOps {
				if n > 0 {
					fmt.Fprintf(os.Stderr, " %s=%d", vm.OptPass(pass), n)
				}
			}
			fmt.Fprint(os.Stderr, ")")
		}
		if unit.Quickened {
			fmt.Fprintf(os.Stderr, ", quickened (%d sites)", unit.QuickenedOps)
		}
		fmt.Fprintln(os.Stderr)
	}
}

// parseArgs turns "30,12" into the program's initial data stack.
func parseArgs(s string) ([]vm.Cell, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]vm.Cell, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -args value %q: %w", p, err)
		}
		out = append(out, vm.Cell(n))
	}
	return out, nil
}

func loadSource(workload string, args []string) (src, name string, err error) {
	if workload != "" {
		w, ok := workloads.ByName(workload)
		if !ok {
			return "", "", fmt.Errorf("unknown workload %q", workload)
		}
		return w.Source, w.Name, nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("usage: forthvm [flags] prog.fs | - (stdin) | -workload name")
	}
	if args[0] == "-" {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", "", err
		}
		return string(b), "stdin", nil
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(b), args[0], nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "forthvm: %v\n", err)
	os.Exit(1)
}
