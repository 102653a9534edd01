package simvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Hotalloc enforces the zero-alloc discipline on functions marked
// `//simvet:hotpath` (the wheel push/pop, every machine's event
// handlers and the step, dispatch and complete functions they call,
// the arrival pump, admission lanes, obs recorders, the rack router
// Route methods). Inside a marked function it flags the three
// constructs that put allocations on a per-event path:
//
//   - function literals capturing enclosing locals — each evaluation
//     allocates a closure (schedule a resource that implements
//     sim.Handler instead, keeping the state in its fields, as
//     cluster.Pump and every machine's worker cores do);
//   - interface boxing of concrete values — any(x)/interface{}(x)
//     conversions, interface-typed var declarations with a concrete
//     initializer, and fmt/log calls (their variadic ...any boxes
//     every argument);
//   - append to a function-local slice that was never made with
//     capacity — growth reallocates on the hot path (preallocate with
//     make(T, 0, n), or append into a reused struct-field buffer).
//
// Appends to struct fields, the reused-buffer idiom, are not flagged.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation sources in //simvet:hotpath functions",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) error {
	pkgNames := packageDeclNames(pass.Files)
	for _, file := range pass.Files {
		marked := markedFuncs(pass.Fset, file, "simvet:hotpath")
		for fn := range marked {
			if fn.Body != nil {
				checkHotFunc(pass, fn, pkgNames)
			}
		}
	}
	return nil
}

// packageDeclNames collects every package-level identifier so closure
// references to them are not mistaken for captures.
func packageDeclNames(files []*ast.File) map[string]bool {
	out := map[string]bool{}
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				out[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							out[n.Name] = true
						}
					case *ast.TypeSpec:
						out[s.Name.Name] = true
					}
				}
			}
		}
	}
	return out
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl, pkgNames map[string]bool) {
	report := func(pos token.Pos, category, suggestion, format string, args ...any) {
		pass.Report(Diagnostic{
			Pos:        pos,
			Analyzer:   "hotalloc",
			Category:   category,
			Message:    fmt.Sprintf(format, args...) + " in //simvet:hotpath function " + fn.Name.Name,
			Suggestion: suggestion,
		})
	}

	// Enclosing-function bindings a literal could capture: receiver,
	// params, named results, and locals declared outside any literal.
	enclosing := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				if n.Name != "_" {
					enclosing[n.Name] = true
				}
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)
	addFields(fn.Type.Results)
	collectDeclared(fn.Body, true, enclosing)

	// Locals made with explicit capacity (or length): appends to them
	// stay in preallocated storage.
	preallocated := map[string]bool{}
	declaredLocals := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if s.Tok == token.DEFINE {
					declaredLocals[id.Name] = true
				}
				if i < len(s.Rhs) && isSizedMake(s.Rhs[i]) {
					preallocated[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				declaredLocals[name.Name] = true
				if i < len(s.Values) && isSizedMake(s.Values[i]) {
					preallocated[name.Name] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			captured := closureCaptures(s, enclosing, pkgNames)
			if len(captured) > 0 {
				report(s.Pos(), "closure",
					"make the event target a resource implementing sim.Handler that keeps the state in its fields (see cluster.Pump.Fire), or pass the state as an argument",
					"function literal captures %s; each evaluation allocates a closure", strings.Join(captured, ", "))
			}
			return false // captures inside nested literals belong to the literal
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "any" && len(s.Args) == 1 {
				report(s.Pos(), "boxing",
					"keep the concrete type on the hot path; box once at construction or off-path",
					"any(%s) boxes a concrete value", exprText(s.Args[0]))
			}
			if isInterfaceConv(s.Fun) && len(s.Args) == 1 {
				report(s.Pos(), "boxing",
					"keep the concrete type on the hot path; box once at construction or off-path",
					"interface conversion boxes %s", exprText(s.Args[0]))
			}
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok {
				if base, ok := sel.X.(*ast.Ident); ok && (base.Name == "fmt" || base.Name == "log") {
					report(s.Pos(), "boxing",
						"move formatting off the hot path; record raw values and format at flush time",
						"%s.%s boxes every argument through ...any and formats", base.Name, sel.Sel.Name)
				}
			}
		case *ast.ValueSpec:
			if isInterfaceType(s.Type) && len(s.Values) > 0 {
				report(s.Pos(), "boxing",
					"keep the concrete type on the hot path; box once at construction or off-path",
					"interface-typed declaration boxes its initializer")
			}
		case *ast.AssignStmt:
			call, ok := appendCall(s)
			if !ok {
				break
			}
			target, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				break // struct-field append: the reused-buffer idiom
			}
			_ = call
			if declaredLocals[target.Name] && !preallocated[target.Name] {
				report(s.Pos(), "append-grow",
					fmt.Sprintf("preallocate: %s := make([]T, 0, n), or append into a reused struct-field buffer", target.Name),
					"append to %s, a local slice with no preallocated capacity; growth reallocates", target.Name)
			}
		}
		return true
	})
}

// collectDeclared adds identifiers declared in the block to out; when
// skipLits is true it does not descend into function literals (their
// locals belong to the literal, not the enclosing function).
func collectDeclared(body *ast.BlockStmt, skipLits bool, out map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return !skipLits
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						out[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.Name != "_" {
					out[name.Name] = true
				}
			}
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{s.Key, s.Value} {
				if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
					out[id.Name] = true
				}
			}
		}
		return true
	})
}

// closureCaptures returns the sorted names of enclosing-function
// bindings a function literal references, excluding its own bindings
// and package-level names.
func closureCaptures(lit *ast.FuncLit, enclosing, pkgNames map[string]bool) []string {
	own := map[string]bool{}
	for _, fl := range []*ast.FieldList{lit.Type.Params, lit.Type.Results} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				own[n.Name] = true
			}
		}
	}
	collectDeclared(lit.Body, false, own)
	refs := map[string]bool{}
	identsIn(lit.Body, refs)
	var captured []string
	for name := range enclosing {
		if refs[name] && !own[name] && !pkgNames[name] {
			captured = append(captured, name)
		}
	}
	sort.Strings(captured)
	return captured
}

// isSizedMake matches make([]T, n) / make([]T, n, c): storage with
// explicit length or capacity.
func isSizedMake(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "make" && len(call.Args) >= 2
}

// isInterfaceConv matches the callee of interface{...}(x) conversions.
func isInterfaceConv(e ast.Expr) bool {
	if p, ok := e.(*ast.ParenExpr); ok {
		e = p.X
	}
	_, ok := e.(*ast.InterfaceType)
	return ok
}

// isInterfaceType reports whether a type expression is syntactically an
// interface (interface{...} or the any alias).
func isInterfaceType(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.InterfaceType:
		return true
	case *ast.Ident:
		return t.Name == "any"
	case *ast.ParenExpr:
		return isInterfaceType(t.X)
	}
	return false
}
