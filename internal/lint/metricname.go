package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
)

// metricNamePattern is the naming convention every registered metric
// family must satisfy; this analyzer is its only check (the registry
// takes any name).
var metricNamePattern = regexp.MustCompile(`^nsdf_[a-z0-9_]+$`)

// labelKeyPattern constrains label keys to the Prometheus identifier
// grammar.
var labelKeyPattern = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// telemetryPackage is the metrics registry whose constructors are
// inspected; metricMethods maps its method names to the kind they
// register.
const telemetryPackage = "nsdfgo/internal/telemetry"

var metricMethods = map[string]string{
	"Counter":     "counter",
	"Gauge":       "gauge",
	"Histogram":   "histogram",
	"CounterFunc": "counter",
	"GaugeFunc":   "gauge",
}

// metricUse records where a metric name was first registered and as
// which kind, for cross-package conflict detection.
type metricUse struct {
	kind string
	pos  token.Position
}

// MetricNameAnalyzer enforces the telemetry naming contract: every name
// reaching Registry.Counter/Gauge/Histogram/CounterFunc/GaugeFunc must
// be a string constant matching ^nsdf_[a-z0-9_]+$, label keys must be
// constant identifiers, labels may not be spliced in as a dynamic
// slice, and a name must keep one kind across the whole module.
var MetricNameAnalyzer = &Analyzer{
	Name: "metricname",
	Doc:  "telemetry metric names must be nsdf_-prefixed string constants with one kind module-wide",
	Run:  runMetricName,
}

func runMetricName(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			kind, ok := metricMethods[fn.Name()]
			if !ok || !isRegistryMethod(fn, telemetryPackage) {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			nameArg := call.Args[0]
			name, isConst := constString(info, nameArg)
			switch {
			case !isConst:
				pass.Reportf(nameArg.Pos(),
					"metric name passed to %s must be a string constant, not a dynamically built value", fn.Name())
			case !metricNamePattern.MatchString(name):
				pass.Reportf(nameArg.Pos(),
					"metric name %q does not match ^nsdf_[a-z0-9_]+$", name)
			default:
				key := "name:" + name
				if prev, seen := pass.State[key].(metricUse); seen {
					if prev.kind != kind {
						pass.Reportf(nameArg.Pos(),
							"metric %q registered as %s here but as %s at %s:%d", name, kind, prev.kind,
							filepath.Base(prev.pos.Filename), prev.pos.Line)
					}
				} else {
					pass.State[key] = metricUse{kind: kind, pos: pass.Pkg.Fset.Position(nameArg.Pos())}
				}
			}

			labelStart := 1
			if fn.Name() == "CounterFunc" || fn.Name() == "GaugeFunc" {
				labelStart = 2
			}
			if len(call.Args) <= labelStart {
				return true
			}
			if call.Ellipsis.IsValid() {
				pass.Reportf(call.Args[len(call.Args)-1].Pos(),
					"labels passed to %s as a dynamic slice; spell out constant key/value pairs", fn.Name())
				return true
			}
			for i, arg := range call.Args[labelStart:] {
				if i%2 != 0 {
					continue // label values may be dynamic
				}
				key, isConst := constString(info, arg)
				switch {
				case !isConst:
					pass.Reportf(arg.Pos(), "label key passed to %s must be a string constant", fn.Name())
				case !labelKeyPattern.MatchString(key):
					pass.Reportf(arg.Pos(), "label key %q is not a valid identifier", key)
				}
			}
			return true
		})
	}
}

// isRegistryMethod reports whether fn is a method on the telemetry
// registry type (by pointer or value receiver).
func isRegistryMethod(fn *types.Func, telemetryPkg string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == telemetryPkg && named.Obj().Name() == "Registry"
}

// calleeFunc resolves the called function or method, or nil when the
// callee is not a named function (e.g. a function value).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// constString returns the compile-time string value of expr, if any.
func constString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
