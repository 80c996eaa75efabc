// Package detlint is the repo's determinism linter: a static pass that
// enforces the ROADMAP's byte-identical-output guarantee at build time
// instead of hoping the runtime diff in `make check` catches a
// regression.
//
// Checks (see docs/VERIFY.md for the policy rationale):
//
//   - rangemap:  no `range` over a map in packages that feed
//     deterministic output — iteration order varies run to run;
//   - mapskeys:  no maps.Keys/maps.Values in those packages unless the
//     iterator feeds slices.Sorted directly;
//   - timenow:   no time.Now/time.Since in those packages outside
//     telemetry instrumentation;
//   - mathrand:  no math/rand at all in those packages (unseeded global
//     state; seeded determinism is still a trap under parallelism);
//   - sortslice: no sort.Slice whose comparator is a single projected
//     key — distinct elements with equal keys keep no stable order, so
//     the sorted bytes vary run to run; use sort.SliceStable or add a
//     tiebreak;
//   - staleignore: no escape hatch that suppresses nothing, so none
//     outlives the code it excused.
//
// A finding is suppressed by an escape hatch on the same or preceding
// line naming the check and a reason:
//
//	//detlint:ignore rangemap keys are sorted two lines down
//
// The linter is built on the standard library's go/parser and go/types
// (with the "source" importer), not golang.org/x/tools, so it runs in
// hermetic environments with an empty module cache.
package detlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Msg)
}

// Check identifiers.
const (
	CheckRangeMap  = "rangemap"
	CheckMapsKeys  = "mapskeys"
	CheckTimeNow   = "timenow"
	CheckMathRand  = "mathrand"
	CheckSortSlice = "sortslice"
	CheckStale     = "staleignore"
)

// detPkgs lists the import-path suffixes of packages whose output must
// be byte-identical across runs: the compiler and assembler (generated
// code), the simulator and pipeline model (measurements), the encoders
// and disassembler, the lab/experiment layer (tables), the jobs
// content-key paths, and the columnar measurement store (files).
// rangemap/mapskeys/mathrand apply here.
var detPkgs = []string{
	"internal/mcc", "internal/asm", "internal/sim", "internal/pipeline",
	"internal/core", "internal/experiments", "internal/jobs",
	"internal/isa", "internal/d16", "internal/dlxe", "internal/prog",
	"internal/dis", "internal/bench", "internal/cache", "internal/memsys",
	"internal/verify", "internal/store", "internal/synth", "internal/sweep",
	"internal/static",
}

// timeExemptPkgs are deterministic-output packages where wall-clock
// reads are nonetheless legitimate: the jobs scheduler times out and
// retries on real time (none of which feeds result bytes).
var timeExemptPkgs = []string{"internal/jobs"}

func hasSuffixPkg(pkgPath string, list []string) bool {
	for _, s := range list {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// ChecksFor returns the set of checks that apply to a package.
func ChecksFor(pkgPath string) map[string]bool {
	if !hasSuffixPkg(pkgPath, detPkgs) {
		return nil
	}
	cs := map[string]bool{CheckRangeMap: true, CheckMapsKeys: true, CheckMathRand: true, CheckSortSlice: true}
	if !hasSuffixPkg(pkgPath, timeExemptPkgs) {
		cs[CheckTimeNow] = true
	}
	return cs
}

// LintDir parses, type-checks and lints one package directory.
// pkgPath decides which checks apply (it is the package's import path;
// tests pass synthetic paths to force rules on or off). Test files are
// not linted: only shipped code feeds deterministic output.
func LintDir(dir, pkgPath string) ([]Finding, error) {
	checks := ChecksFor(pkgPath)
	if len(checks) == 0 {
		return nil, nil
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var names []string
	for name := range pkgs { //detlint:ignore rangemap sorted immediately below
		names = append(names, name)
	}
	sort.Strings(names)
	var all []Finding
	for _, name := range names {
		pkg := pkgs[name]
		var files []*ast.File
		var fnames []string
		for fname := range pkg.Files { //detlint:ignore rangemap sorted immediately below
			fnames = append(fnames, fname)
		}
		sort.Strings(fnames)
		for _, fname := range fnames {
			files = append(files, pkg.Files[fname])
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{
			Importer: importer.ForCompiler(fset, "source", nil),
			Error:    func(error) {}, // collect what we can; parse errors surface via go build
		}
		conf.Check(pkgPath, fset, files, info)
		for _, f := range files {
			all = append(all, lintFile(fset, f, info, checks)...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return all[i].Check < all[j].Check
	})
	return all, nil
}

// LintModule walks a module root and lints every package directory,
// deciding import paths from go.mod. testdata and hidden directories
// are skipped.
func LintModule(root string) ([]Finding, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			name := fi.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		fs, err := LintDir(dir, pkgPath)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		all = append(all, fs...)
	}
	return all, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// lintFile runs the enabled checks over one file.
func lintFile(fset *token.FileSet, f *ast.File, info *types.Info, checks map[string]bool) []Finding {
	ig := collectIgnores(fset, f)
	var out []Finding
	report := func(pos token.Pos, check, msg string) {
		p := fset.Position(pos)
		if ig.suppressed(p.Line, check) {
			return
		}
		out = append(out, Finding{Pos: p, Check: check, Msg: msg})
	}

	// Import-level checks.
	pkgNames := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		pkgNames[name] = path
		if checks[CheckMathRand] && (path == "math/rand" || path == "math/rand/v2") {
			report(imp.Pos(), CheckMathRand,
				"math/rand in a deterministic-output package (unseeded global state)")
		}
	}
	isPkgCall := func(e ast.Expr, path, fn string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != fn {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && pkgNames[id.Name] == path
	}

	// parent links for the mapskeys sorted-wrapper exemption.
	parent := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)

		switch n := n.(type) {
		case *ast.RangeStmt:
			if checks[CheckRangeMap] && isMapType(info, n.X) {
				report(n.Pos(), CheckRangeMap,
					"range over a map in a deterministic-output package (iteration order varies; collect and sort keys instead)")
			}
		case *ast.CallExpr:
			if checks[CheckMapsKeys] &&
				(isPkgCall(n.Fun, "maps", "Keys") || isPkgCall(n.Fun, "maps", "Values") ||
					isPkgCall(n.Fun, "golang.org/x/exp/maps", "Keys") || isPkgCall(n.Fun, "golang.org/x/exp/maps", "Values")) {
				if !feedsSorted(parent, n, pkgNames) {
					report(n.Pos(), CheckMapsKeys,
						"maps.Keys/Values without an immediate slices.Sorted in a deterministic-output package")
				}
			}
			if checks[CheckTimeNow] &&
				(isPkgCall(n.Fun, "time", "Now") || isPkgCall(n.Fun, "time", "Since")) {
				report(n.Pos(), CheckTimeNow,
					"wall-clock read in a deterministic-output package (keep timing in telemetry)")
			}
			if checks[CheckSortSlice] && isPkgCall(n.Fun, "sort", "Slice") && len(n.Args) == 2 {
				if lit, ok := n.Args[1].(*ast.FuncLit); ok && singleKeyComparator(lit) {
					report(n.Pos(), CheckSortSlice,
						"sort.Slice on a single projected key in a deterministic-output package (equal keys keep no stable order; use sort.SliceStable or add a tiebreak)")
				}
			}
		}
		return true
	})
	for _, d := range ig.unused() {
		out = append(out, Finding{Pos: fset.Position(d.pos), Check: CheckStale,
			Msg: "//detlint:ignore " + d.check + " suppresses no finding on its line or the next (remove it)"})
	}
	return out
}

// singleKeyComparator reports whether a sort.Slice comparator is a
// single `return a < b`-style comparison of one key projected off each
// indexed element — the shape where equal keys on distinct elements
// leave the final order up to the (unstable) sort. Anything it cannot
// see through is exempt: multi-statement bodies carry their own
// tiebreaks, a lone call delegates to a comparator this pass cannot
// inspect, and direct element compares (`s[i] < s[j]`) only tie when
// the elements are identical, where order is unobservable.
func singleKeyComparator(lit *ast.FuncLit) bool {
	if len(lit.Body.List) != 1 {
		return false
	}
	ret, ok := lit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	cmp, ok := ret.Results[0].(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cmp.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	return projectsKey(cmp.X) && projectsKey(cmp.Y)
}

// projectsKey reports whether e selects a field off an indexed element
// (`s[i].F`, possibly through nested selectors).
func projectsKey(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x := sel.X
	for {
		switch v := x.(type) {
		case *ast.SelectorExpr:
			x = v.X
		case *ast.IndexExpr:
			return true
		default:
			return false
		}
	}
}

// feedsSorted reports whether call is the direct argument of a
// slices.Sorted* call — the sanctioned way to consume maps.Keys.
func feedsSorted(parent map[ast.Node]ast.Node, call *ast.CallExpr, pkgNames map[string]string) bool {
	p, ok := parent[call].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := p.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Sorted") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && pkgNames[id.Name] == "slices"
}

// isMapType reports whether e's type is (or has an underlying) map.
// With a partially failed type check the type may be missing; the check
// errs toward silence then — `go build` will be failing anyway.
func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// ignores records //detlint:ignore directives by line and check.
type ignores map[int]map[string]*directive

// directive is one escape hatch: where it is, what it names, and
// whether it has suppressed a finding.
type directive struct {
	pos   token.Pos
	check string
	used  bool
}

func (ig ignores) suppressed(line int, check string) bool {
	for _, l := range []int{line, line - 1} {
		if d := ig[l][check]; d != nil {
			d.used = true
			return true
		}
	}
	return false
}

// unused returns the directives that suppressed nothing, in position
// order.
func (ig ignores) unused() []*directive {
	var out []*directive
	for _, byCheck := range ig { //detlint:ignore rangemap sorted immediately below
		for _, d := range byCheck { //detlint:ignore rangemap sorted immediately below
			if !d.used {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

func collectIgnores(fset *token.FileSet, f *ast.File) ignores {
	ig := ignores{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//detlint:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				continue // a bare ignore without check name + reason is inert
			}
			line := fset.Position(c.Pos()).Line
			if ig[line] == nil {
				ig[line] = map[string]*directive{}
			}
			ig[line][fields[0]] = &directive{pos: c.Pos(), check: fields[0]}
		}
	}
	return ig
}
