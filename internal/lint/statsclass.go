package lint

import (
	"go/ast"
	"go/types"
	"path"
	"reflect"
	"strings"
)

// StatsClass audits the observability layer's classification contract:
// every field of every internal/obs stats struct (Stats and *Stats)
// must carry an explicit `sem` struct tag —
//
//	sem:"det"     deterministic: identical on every run of an input,
//	              part of the fingerprint contract
//	sem:"nondet"  measurement outside the contract
//	sem:"group"   a nested stats struct (or slice of one) whose own
//	              fields carry the classification
//
// A field whose type comes from internal/telemetry (DurationNS,
// Stopwatch, ...) carries a wall-clock measurement by construction and
// must be sem:"nondet" — the type system marks the nondeterminism, the
// tag must agree.
//
// — and each struct's Fingerprint / DeterministicFingerprint method
// must cover exactly the DETERMINISTIC set: every det field referenced,
// no nondet field referenced, det-bearing groups included (delegated to
// the nested Fingerprint or referencing the nested det leaves) and
// det-free groups excluded. A new field without a tag, or a fingerprint
// drifting from the tags, is a compile-time finding instead of a flaky
// determinism-test failure.
var StatsClass = &Analyzer{
	Name: "statsclass",
	Doc: "require an explicit sem:\"det\"|\"nondet\"|\"group\" classification tag on " +
		"every internal/obs stats field, and fingerprints covering exactly the det set",
	Run: runStatsClass,
}

// semField is one classified field of a stats struct.
type semField struct {
	name  string
	class string // det | nondet | group | "" (untagged / invalid)
	inner string // named stats struct behind a group field
}

func runStatsClass(p *Pass) {
	if !isObsPkg(p.Pkg) {
		return
	}

	scope := p.Pkg.Types.Scope()
	structs := map[string][]semField{}

	for _, name := range scope.Names() {
		if !strings.HasSuffix(name, "Stats") {
			continue
		}
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var fields []semField
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			tag := reflect.StructTag(st.Tag(i)).Get("sem")
			f := semField{name: fld.Name(), class: tag}
			inner, structish := statsElem(fld.Type(), p.Pkg.Types)
			switch tag {
			case "":
				p.Reportf(fld.Pos(),
					"field %s.%s is not classified; tag it sem:\"det\", sem:\"nondet\" or sem:\"group\" "+
						"(see the determinism contract in docs/ARCHITECTURE.md)", name, fld.Name())
				f.class = ""
			case "det", "nondet":
				if tag == "det" && isTelemetryType(fld.Type()) {
					p.Reportf(fld.Pos(),
						"field %s.%s has telemetry-derived type %s and must be tagged sem:\"nondet\": "+
							"wall-clock measurements are scheduling-dependent", name, fld.Name(), fld.Type())
					break
				}
				if isTelemetryType(fld.Type()) {
					break // a nondet telemetry value (e.g. a Stopwatch) is not a stats group
				}
				if structish {
					p.Reportf(fld.Pos(),
						"field %s.%s nests a stats struct and must be tagged sem:\"group\" "+
							"(its leaves carry the det/nondet classification)", name, fld.Name())
				}
			case "group":
				if isTelemetryType(fld.Type()) {
					p.Reportf(fld.Pos(),
						"field %s.%s has telemetry-derived type %s and must be tagged sem:\"nondet\": "+
							"wall-clock measurements are scheduling-dependent", name, fld.Name(), fld.Type())
					break
				}
				if !structish {
					p.Reportf(fld.Pos(),
						"field %s.%s is tagged sem:\"group\" but is not a nested stats struct; "+
							"classify the leaf as sem:\"det\" or sem:\"nondet\"", name, fld.Name())
				}
				f.inner = inner
			default:
				p.Reportf(fld.Pos(),
					"field %s.%s has unknown classification sem:%q; use det, nondet or group",
					name, fld.Name(), tag)
				f.class = ""
			}
			fields = append(fields, f)
		}
		structs[name] = fields
	}

	// detBearing: does the struct (transitively) contain a det leaf?
	var detBearing func(name string, seen map[string]bool) bool
	detBearing = func(name string, seen map[string]bool) bool {
		if seen[name] {
			return false
		}
		seen[name] = true
		for _, f := range structs[name] {
			switch f.class {
			case "det":
				return true
			case "group":
				if f.inner != "" && detBearing(f.inner, seen) {
					return true
				}
			}
		}
		return false
	}

	// hasFingerprint: structs with their own fingerprint method may be
	// covered by delegation.
	hasFingerprint := map[string]bool{}
	type fpMethod struct {
		recv string
		decl *ast.FuncDecl
	}
	var methods []fpMethod
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if fd.Name.Name != "Fingerprint" && fd.Name.Name != "DeterministicFingerprint" {
				continue
			}
			recv := recvTypeName(fd)
			if _, tracked := structs[recv]; !tracked {
				continue
			}
			hasFingerprint[recv] = true
			methods = append(methods, fpMethod{recv: recv, decl: fd})
		}
	}

	for _, m := range methods {
		refs := map[string]bool{}
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				refs[sel.Sel.Name] = true
			}
			return true
		})
		var check func(structName, prefix string)
		check = func(structName, prefix string) {
			for _, f := range structs[structName] {
				label := prefix + f.name
				switch f.class {
				case "det":
					if !refs[f.name] {
						p.Reportf(m.decl.Pos(),
							"%s.%s omits DETERMINISTIC field %s; the fingerprint must cover the full det set",
							m.recv, m.decl.Name.Name, label)
					}
				case "nondet":
					if refs[f.name] {
						p.Reportf(m.decl.Pos(),
							"%s.%s references NONDETERMINISTIC field %s; fingerprints must be identical on every run",
							m.recv, m.decl.Name.Name, label)
					}
				case "group":
					bearing := f.inner != "" && detBearing(f.inner, map[string]bool{})
					if !bearing {
						if refs[f.name] {
							p.Reportf(m.decl.Pos(),
								"%s.%s references group %s, which has no DETERMINISTIC leaves",
								m.recv, m.decl.Name.Name, label)
						}
						continue
					}
					if !refs[f.name] {
						p.Reportf(m.decl.Pos(),
							"%s.%s omits det-bearing group %s; include its fingerprint or its det leaves",
							m.recv, m.decl.Name.Name, label)
						continue
					}
					// Delegated to the nested struct's own fingerprint
					// method, or flattened into this one: either way the
					// nested det leaves must be honored here or there.
					if !hasFingerprint[f.inner] {
						check(f.inner, label+".")
					}
				}
			}
		}
		check(m.recv, "")
	}
}

// isTelemetryType reports whether the type — behind pointers, slices,
// arrays and map values — is a named type declared in
// internal/telemetry. Such a value is a wall-clock measurement by
// construction.
func isTelemetryType(t types.Type) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return isTelemetryType(u.Elem())
	case *types.Slice:
		return isTelemetryType(u.Elem())
	case *types.Array:
		return isTelemetryType(u.Elem())
	case *types.Map:
		return isTelemetryType(u.Elem())
	case *types.Named:
		pkg := u.Obj().Pkg()
		return pkg != nil && path.Base(pkg.Path()) == "telemetry"
	}
	return false
}

// statsElem resolves the stats struct (if any) behind a field type:
// a named struct of the same package, possibly behind a pointer, slice,
// array or map value. Returns its name and whether the type is
// struct-shaped at all.
func statsElem(t types.Type, pkg *types.Package) (name string, structish bool) {
	switch u := t.(type) {
	case *types.Pointer:
		return statsElem(u.Elem(), pkg)
	case *types.Slice:
		return statsElem(u.Elem(), pkg)
	case *types.Array:
		return statsElem(u.Elem(), pkg)
	case *types.Map:
		return statsElem(u.Elem(), pkg)
	case *types.Named:
		if _, ok := u.Underlying().(*types.Struct); !ok {
			return "", false
		}
		if u.Obj().Pkg() == pkg {
			return u.Obj().Name(), true
		}
		return "", true
	case *types.Struct:
		return "", true
	}
	return "", false
}

// recvTypeName extracts the receiver's base type name.
func recvTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
