package ipipe_test

// The module's contracts, checked instead of described:
//
//   - TestImportContracts: which package may import which (the
//     contracts table below is the dependency graph);
//   - TestExportedSurface: what non-test code may declare — nothing no
//     program reaches, and no export only its own package uses;
//   - TestFacadeSurface: what the root facade may export;
//   - TestAttachPointContracts: how many ways a layer may be observed;
//   - TestFreeListOwnership: who may recycle a pooled record;
//   - TestViewsDoNotEscape: where a borrowed view may not be stored.
//
// All of them read one load of the module: every package's non-test
// files, type-checked with go/types against the standard library's
// export data, and the root package's tests. TestViewsDoNotEscape
// still matches syntax only; its limits are stated where it is defined.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const modulePath = "repro"

// contract is one package of the module: its path relative to the
// module root ("" is the root facade), what it is for, and the module
// packages its non-test files may import. An import missing from its
// row fails, and so does a row edge nothing imports.
type contract struct {
	path    string
	role    string
	imports []string
}

var contracts = []contract{
	{"internal/sim", "deterministic discrete-event engine: two-tier event queue, virtual clock, stations, FIFOs, seeded RNG, partitioned groups", nil},
	{"internal/stats", "EWMA, streaming samples and exact percentiles", nil},
	{"internal/shard", "consistent-hash ring for sharded deployments", nil},
	{"internal/nstack", "Table 4's Nstack: real Ethernet/IPv4/UDP framing", nil},
	{"internal/spec", "hardware profiles from the paper's §2 characterization (Tables 1-3, Figs 2-10)",
		[]string{"internal/sim"}},
	{"internal/obs", "span tracer, metrics collector, Chrome-trace/NDJSON export and validators",
		[]string{"internal/sim"}},
	{"internal/invariant", "runtime invariant checker: conservation, FIFO, DRR fairness, credits, bytes",
		[]string{"internal/sim"}},
	{"internal/actor", "the actor programming model: Actor, Msg, Ctx (§3.1, Table 4)",
		[]string{"internal/sim", "internal/stats"}},
	{"internal/dmo", "distributed memory objects: the indexed object table and per-actor regions (§3.3)",
		[]string{"internal/invariant"}},
	{"internal/pcie", "PCIe DMA cost model, RDMA profiles included (Figs 7-10)",
		[]string{"internal/obs", "internal/sim", "internal/spec"}},
	{"internal/msgring", "host<->NIC message rings over PCIe with lazy pointer sync (§3.5)",
		[]string{"internal/invariant", "internal/pcie", "internal/sim"}},
	{"internal/netsim", "links, switch and topology with serialization and propagation delay",
		[]string{"internal/invariant", "internal/obs", "internal/sim", "internal/spec"}},
	{"internal/nicsim", "SmartNIC model: traffic gate, packet buffer, memory hierarchy, accelerators",
		[]string{"internal/invariant", "internal/obs", "internal/sim", "internal/spec"}},
	{"internal/hostsim", "host cores and the DPDK-style poll-mode runtime",
		[]string{"internal/actor", "internal/obs", "internal/sim"}},
	{"internal/isolation", "§3.4 isolation: DMO region guard and DoS watchdog",
		[]string{"internal/actor", "internal/sim"}},
	{"internal/sched", "the hybrid FCFS+DRR scheduler with migration and autoscaling (§3.2)",
		[]string{"internal/actor", "internal/invariant", "internal/obs", "internal/sim", "internal/stats"}},
	{"internal/core", "the per-node iPipe runtime: dispatch, actor lifecycle, migration, Table 4 API",
		[]string{"internal/actor", "internal/dmo", "internal/hostsim", "internal/invariant", "internal/isolation",
			"internal/msgring", "internal/netsim", "internal/nicsim", "internal/obs", "internal/pcie",
			"internal/sched", "internal/sim", "internal/spec"}},
	{"internal/workload", "load generators: clients, open/closed loops, batching, key and cost distributions",
		[]string{"internal/actor", "internal/core", "internal/invariant", "internal/netsim", "internal/sim", "internal/stats"}},
	{"internal/fault", "fault schedules turned into simulator events",
		[]string{"internal/core", "internal/invariant", "internal/obs", "internal/sim"}},
	{"internal/qos", "multi-tenant QoS: lanes, admission, the SLO controller",
		[]string{"internal/actor", "internal/core", "internal/invariant", "internal/obs", "internal/sched",
			"internal/sim", "internal/workload"}},
	{"internal/apps/rkv", "replicated KV: Multi-Paxos over an LSM tree on DMOs (§4). It imports core " +
		"only because the frozen benchmark calls rkv.Deploy(nodes []*core.Node, …)",
		[]string{"internal/actor", "internal/core", "internal/sim"}},
	{"internal/apps/dt", "distributed transactions: OCC + 2PC (§4)",
		[]string{"internal/actor", "internal/sim"}},
	{"internal/apps/rta", "real-time analytics: filter, counter, ranker (§4)",
		[]string{"internal/actor", "internal/sim"}},
	{"internal/apps/nf", "network functions: TCAM firewall and IPSec gateway (§5.7)",
		[]string{"internal/actor", "internal/nstack", "internal/sim"}},
	{"internal/baseline", "Floem-style static offload and the standalone FCFS/DRR disciplines",
		[]string{"internal/core", "internal/sched", "internal/sim", "internal/spec"}},
	{"internal/mesh", "the echo mesh: many NIC nodes forwarding RPCs, classic or partitioned",
		[]string{"internal/actor", "internal/core", "internal/sim", "internal/spec", "internal/stats", "internal/workload"}},
	{"internal/deploy", "per-application deployment specs with the shared policy block",
		[]string{"internal/actor", "internal/apps/dt", "internal/apps/nf", "internal/apps/rkv", "internal/apps/rta",
			"internal/core", "internal/fault", "internal/qos", "internal/shard", "internal/sim"}},
	{"internal/bench", "the experiment registry: one runner per table and figure, golden replay, reports",
		[]string{"internal/actor", "internal/apps/dt", "internal/apps/nf", "internal/apps/rkv", "internal/apps/rta",
			"internal/baseline", "internal/core", "internal/deploy", "internal/fault", "internal/invariant",
			"internal/mesh", "internal/msgring", "internal/nicsim", "internal/obs",
			"internal/pcie", "internal/qos", "internal/sched", "internal/sim", "internal/spec", "internal/stats",
			"internal/workload"}},
	{"", "the public facade (package ipipe): what the examples and the README program against",
		[]string{"internal/actor", "internal/apps/dt", "internal/apps/nf", "internal/apps/rkv", "internal/apps/rta",
			"internal/bench", "internal/core", "internal/deploy", "internal/fault",
			"internal/nstack", "internal/qos", "internal/sim", "internal/spec", "internal/workload"}},
	{"cmd/ipipe-bench", "runs any experiment by id",
		[]string{"internal/bench", "internal/obs", "internal/sim"}},
	{"cmd/ipipe-sim", "runs one ad-hoc cluster simulation: any application, or the echo mesh",
		[]string{"internal/actor", "internal/apps/dt", "internal/apps/nf", "internal/apps/rkv", "internal/apps/rta",
			"internal/core", "internal/deploy", "internal/invariant", "internal/mesh",
			"internal/obs", "internal/sched", "internal/sim", "internal/spec", "internal/workload"}},
	{"cmd/ipipe-trace", "validates trace and metrics artifacts",
		[]string{"internal/obs"}},
	{"benchmark", "the repository benchmark; frozen, so its imports and every name it uses are fixed",
		[]string{"internal/actor", "internal/apps/dt", "internal/apps/rkv", "internal/core", "internal/dmo",
			"internal/hostsim", "internal/invariant", "internal/msgring", "internal/netsim", "internal/nicsim",
			"internal/obs", "internal/pcie", "internal/sched", "internal/sim", "internal/spec", "internal/stats",
			"internal/workload"}},
}

// surfaceAllowed lists the identifiers TestExportedSurface passes
// although it would fail them, each with its reason. Each is one of
// three kinds:
//   - a test seam: no program reaches it, or only a test in another
//     package uses it, and the test its reason names relies on it, so it
//     stays as long as that test does;
//   - a name the frozen benchmark declares or uses;
//   - a member of a named family (dmoErrors, qosLanes, table1) that
//     stays whole although not every member has a reader.
var surfaceAllowed = map[string]string{
	"internal/dmo.ErrNoSuchObject":    dmoErrors,
	"internal/dmo.ErrRegionExhausted": dmoErrors,
	"internal/dmo.ErrBounds":          dmoErrors,
	"internal/dmo.ErrNoRegion":        dmoErrors,
	"internal/qos.LaneControl":        qosLanes,
	"internal/qos.LaneData":           qosLanes,
	"internal/qos.LaneTelemetry":      qosLanes,
	"internal/apps/dt.Partition": "TestPartitionStable; deploy's TestDTCoordinatorCrashAtomicity picks " +
		"keys on two participants with it",
	"internal/apps/dt.Store.Get":    dtInstalled,
	"internal/apps/dt.Record.Value": dtInstalled,
	"internal/core.Node.Host":       "TestTraceMatchesCounters holds the host core lanes to its Completed count",
	"internal/core.Node.NICModel":   "TestTraceMatchesCounters reads the accelerators and PPS cap each node's lanes show",
	"internal/core.Node.Dropped":    "TestManyActorsManyNodes checks that no message was dropped",

	"benchmark.metricDef.driver":      benchFrozen,
	"benchmark.metricDef.driverBound": benchFrozen,
	"benchmark.wlSpec.why":            benchFrozen,
	"internal/msgring.Message.DstActor": "benchmark/layers.go addresses its ring messages with it; " +
		"benchmark/ is frozen",
	"internal/msgring.Message.Kind": "benchmark/layers.go writes it into its ring messages; " +
		"benchmark/ is frozen",

	"internal/spec.NICModel.Vendor": table1,
	"internal/spec.NICModel.OnPath": table1,
	"internal/spec.NICModel.FullOS": table1,

	"internal/apps/nf.IPSec.Open":             "TestIPSecSealOpenRoundTrip opens what the gateway sealed",
	"internal/bench.checked.result":           "TestParallelParity compares each checked rendering with quick_seed1.txt",
	"internal/dmo.Store.Size":                 "TestStoreMatchesMapModel",
	"internal/sim.FreeList.Len":               "TestCallListBounded and the other pool tests bound free lists with it",
	"internal/sim.cacheLine":                  "TestPartitionRecordLayout",
	"internal/spec.NICModel.maxBandwidthGbps": "TestMaxBandwidthSaturatesAtLineRate",

	// Counters only tests read, where no fact a program reads tells the same.
	"internal/apps/rkv.Memtable.misses": "TestMinorCompactionAndSSTableRead checks that a flushed key's read " +
		"missed the Memtable",
	"internal/sched.core.executed": "TestIOKernelDispatcherServes checks the dispatcher core runs no actor; " +
		"TestIOKernelBalancesWorkers and TestIOKernelPinsFlowWhilePending count the workers that ran one",
}

const (
	dmoErrors = "actor.Ctx's DMO calls return these to application handlers, " +
		"which tell them apart with errors.Is"
	qosLanes    = "name the indices of the [NumLanes] counter arrays Runtime.LaneTotals returns"
	benchFrozen = "benchmark/ is frozen; TestBenchmarkJSONMatchesProgram holds it equal to BENCHMARK.json"
	table1      = "Table 1 description; ROADMAP item 3 decides"
	dtInstalled = "TestDTCoordinatorCrashAtomicity reads each write's installed value"
)

// viewEscapeAllowed lists "file.go:function" pairs allowed to store a
// view, each with the reason the store is safe. It is empty: nothing
// keeps a view.
var viewEscapeAllowed = map[string]string{}

// pkg is one type-checked package: its non-test files only, except for
// the root package's tests, which load as a package of their own.
type pkg struct {
	path  string // module-relative
	name  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type module struct {
	fset *token.FileSet
	pkgs map[string]*pkg
	// rootTests is the root package's tests (package ipipe_test).
	rootTests *pkg
	// tests names every Test, Fuzz, Example and Benchmark function in
	// the module.
	tests map[string]bool
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example|Benchmark)\w*)\(`)

// loadModule parses the module once and type-checks every package's
// non-test files, then the root package's tests. Other packages' test
// files are only scanned for the names of their test functions.
var loadModule = sync.OnceValues(func() (*module, error) {
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*pkg{}, tests: map[string]bool{}}
	var rootTests []*ast.File
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "." {
			dir = ""
		}
		test := strings.HasSuffix(p, "_test.go")
		if test {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, sm := range testFunc.FindAllSubmatch(src, -1) {
				m.tests[string(sm[1])] = true
			}
			if dir != "" {
				return nil
			}
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if test {
			rootTests = append(rootTests, f)
			return nil
		}
		if m.pkgs[dir] == nil {
			m.pkgs[dir] = &pkg{path: dir, name: f.Name.Name}
		}
		m.pkgs[dir].files = append(m.pkgs[dir].files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.rootTests = &pkg{path: "_test", name: "ipipe_test", files: rootTests}
	return m, m.check()
})

// check type-checks every package in import order. Module imports come
// from the packages checked before; the standard library comes from the
// export data the go command lists for it.
func (m *module) check() error {
	all := append(sortedValues(m.pkgs), m.rootTests)
	std := map[string]bool{}
	for _, p := range all {
		for _, f := range p.files {
			for _, spec := range f.Imports {
				if path := strings.Trim(spec.Path.Value, `"`); !isModule(path) {
					std[path] = true
				}
			}
		}
	}
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"},
		sortedKeys(std)...)...).Output()
	if err != nil {
		return err
	}
	export := map[string]string{}
	for _, line := range strings.Fields(string(out)) {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	imp := moduleImporter{
		std: importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(export[path])
		}),
		pkgs: map[string]*types.Package{},
	}
	var check func(p *pkg) error
	check = func(p *pkg) error {
		for _, f := range p.files {
			for _, spec := range f.Imports {
				rel, ok := modRel(strings.Trim(spec.Path.Value, `"`))
				if dep := m.pkgs[rel]; ok && dep != nil && dep.types == nil {
					if err := check(dep); err != nil {
						return err
					}
				}
			}
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		var err error
		p.types, err = conf.Check(importPath(p.path), m.fset, p.files, p.info)
		imp.pkgs[importPath(p.path)] = p.types
		return err
	}
	for _, p := range all {
		if p.types == nil {
			if err := check(p); err != nil {
				return err
			}
		}
	}
	return nil
}

type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (imp moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := imp.pkgs[path]; ok {
		return p, nil
	}
	return imp.std.Import(path)
}

func mustLoad(t *testing.T) *module {
	t.Helper()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func isModule(importPath string) bool {
	_, ok := modRel(importPath)
	return ok
}

func importPath(rel string) string {
	if rel == "" {
		return modulePath
	}
	return modulePath + "/" + rel
}

// relPath is the module-relative path of a module package.
func relPath(p *types.Package) string {
	rel, _ := modRel(p.Path())
	return rel
}

// modRel maps an import path to a module-relative package path; ok is
// false for imports from outside the module.
func modRel(importPath string) (string, bool) {
	if importPath == modulePath {
		return "", true
	}
	return strings.CutPrefix(importPath, modulePath+"/")
}

func display(path string) string {
	if path == "" {
		return "(root)"
	}
	return path
}

func TestImportContracts(t *testing.T) {
	m := mustLoad(t)
	rows := map[string]contract{}
	for _, c := range contracts {
		if _, dup := rows[c.path]; dup {
			t.Errorf("contracts: %s has two rows", display(c.path))
		}
		rows[c.path] = c
	}
	for _, path := range sortedKeys(m.pkgs) {
		if _, ok := rows[path]; !ok {
			t.Errorf("contracts: package %s has no row; add one with its role and imports", display(path))
		}
	}
	for _, c := range contracts {
		p := m.pkgs[c.path]
		if p == nil {
			t.Errorf("contracts: row %s names no package", display(c.path))
			continue
		}
		allowed := map[string]bool{}
		for _, imp := range c.imports {
			allowed[imp] = true
		}
		used := map[string]bool{}
		for _, f := range p.files {
			for _, spec := range f.Imports {
				rel, ok := modRel(strings.Trim(spec.Path.Value, `"`))
				if !ok {
					continue
				}
				used[rel] = true
				if !allowed[rel] {
					t.Errorf("%s: %s imports %s, which its contract row does not allow",
						m.fset.Position(spec.Pos()), display(c.path), display(rel))
				}
			}
		}
		for _, imp := range c.imports {
			if !used[imp] {
				t.Errorf("contracts: row %s allows %s, which nothing in it imports; drop the edge",
					display(c.path), display(imp))
			}
		}
	}
}

// finding is one identifier an audit rejects, keyed as in surfaceAllowed.
type finding struct {
	pos      token.Pos
	key, why string
}

// TestExportedSurface is the reachability audit. Non-test code is
// reached from the programs: the main functions of cmd/ and benchmark,
// the root package's Example functions (go test runs each and checks
// what it prints), every init function, every package-level
// initializer, and the facade's exported names (TestFacadeSurface holds
// those to their users). Reached code reaches every function, method,
// type, field and constant it names; a method also when a value of its
// receiver type exists in reached code and a method of the same name is
// called through an interface that type implements (a standard-library
// parameter of interface type counts as called, and so do String, Error
// and Unwrap); a field also through == or a map key, or when
// encoding/json sees its struct. Only a read reaches a field: a struct
// literal's key, the target of = or op= (x.f[i] = v included), ++ and --,
// the destination of copy (copy(x.f[:], src)), and an update that reads
// a field only to write it back (x.f = max(x.f, n),
// if n > x.f { x.f = n }, x.f = append(x.f, v)) do not.
// A blank assignment _ = x fails wherever non-test code has one: it
// silences a name nothing reads, which should go instead.
//
// It fails on every declared identifier that nothing reaches (a member
// of an unreached type is covered by its type); on every exported
// top-level identifier under internal/ that no other package's non-test
// code uses, unless it is a type the exported API of one that passes
// names; and on every exported method or field of a type under
// internal/ that no other package uses, unless the method satisfies an
// interface or encoding/json sees the field (exportedMembers). It logs
// how many of those two kinds stay. surfaceAllowed lists the
// exceptions; an entry that silences nothing fails, and so does one
// whose reason names a test that does not exist.
func TestExportedSurface(t *testing.T) {
	m := mustLoad(t)
	r := newReach(m)
	r.run()
	local := exportedMembers(m, r)
	findings := append(r.unreached(), exportedOwnUse(m)...)
	for _, pos := range blankReads(m) {
		t.Errorf("%s: _ = %s reads a name only to silence it; delete the name", m.fset.Position(pos.Pos()), pos.Name)
	}
	methods, fields := 0, 0
	for _, mb := range local {
		if mb.kept {
			if mb.method {
				methods++
			} else {
				fields++
			}
			continue
		}
		findings = append(findings, finding{mb.pos, mb.key,
			"is exported but no other package's code uses it; unexport it"})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	silenced := map[string]bool{}
	for _, f := range findings {
		if _, ok := surfaceAllowed[f.key]; ok {
			silenced[f.key] = true
			continue
		}
		t.Errorf("%s: %s %s", m.fset.Position(f.pos), f.key, f.why)
	}
	for _, key := range sortedKeys(surfaceAllowed) {
		if !silenced[key] {
			t.Errorf("surfaceAllowed: %s silences nothing: it is reached, used by another package, or gone; drop the entry", key)
		}
		for _, name := range testName.FindAllString(surfaceAllowed[key], -1) {
			if !m.tests[name] {
				t.Errorf("surfaceAllowed: %s names %s, which is no test of the module; drop or fix the entry", key, name)
			}
		}
	}
	t.Logf("%d identifiers reached, %d allow-list entries", len(r.reached), len(surfaceAllowed))
	t.Logf("exported but used only in their own package: %d methods that satisfy an interface, "+
		"%d fields encoding/json sees", methods, fields)
}

// blankReads lists the identifiers non-test code assigns to _.
func blankReads(m *module) []*ast.Ident {
	var out []*ast.Ident
	for _, p := range sortedValues(m.pkgs) {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				a, ok := n.(*ast.AssignStmt)
				if !ok || a.Tok != token.ASSIGN || len(a.Lhs) != len(a.Rhs) {
					return true
				}
				for i, lhs := range a.Lhs {
					if l, ok := lhs.(*ast.Ident); ok && l.Name == "_" {
						if id, ok := ast.Unparen(a.Rhs[i]).(*ast.Ident); ok {
							out = append(out, id)
						}
					}
				}
				return true
			})
		}
	}
	return out
}

var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Example|Benchmark)[A-Z_]\w*`)

// exportedOwnUse lists the exported top-level identifiers under
// internal/ that no other package's non-test code uses and that are not
// types the exported API of one that does names.
func exportedOwnUse(m *module) []finding {
	pass := map[types.Object]bool{}
	var work []types.Object
	mark := func(o types.Object) {
		if o.Pkg() != nil && isModule(o.Pkg().Path()) && !pass[o] {
			pass[o] = true
			work = append(work, o)
		}
	}
	for _, p := range sortedValues(m.pkgs) {
		for _, o := range p.info.Uses {
			if o.Pkg() != nil && o.Pkg() != p.types && o.Parent() == o.Pkg().Scope() {
				mark(origin(o))
			}
		}
	}
	var api func(t types.Type)
	api = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			mark(t.Origin().Obj())
			for i := range t.TypeArgs().Len() {
				api(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			api(t.Elem())
		case *types.Slice:
			api(t.Elem())
		case *types.Array:
			api(t.Elem())
		case *types.Chan:
			api(t.Elem())
		case *types.Map:
			api(t.Key())
			api(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := range tup.Len() {
					api(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := range t.NumFields() {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					api(f.Type())
				}
			}
		case *types.Interface:
			for i := range t.NumEmbeddeds() {
				api(t.EmbeddedType(i))
			}
			for i := range t.NumExplicitMethods() {
				api(t.ExplicitMethod(i).Type())
			}
		}
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		api(o.Type())
		if _, ok := o.(*types.TypeName); !ok {
			continue
		}
		if n, ok := o.Type().(*types.Named); ok {
			api(n.Underlying())
			for i := range n.TypeParams().Len() {
				api(n.TypeParams().At(i).Constraint())
			}
			for i := range n.NumMethods() {
				if meth := n.Method(i); meth.Exported() {
					api(meth.Type())
				}
			}
		}
	}
	var out []finding
	for _, p := range sortedValues(m.pkgs) {
		if !strings.HasPrefix(p.path, "internal/") {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			if o := p.types.Scope().Lookup(name); o.Exported() && !pass[o] {
				out = append(out, finding{o.Pos(), p.path + "." + name,
					"is exported but no other package's non-test code uses it; unexport or delete it"})
			}
		}
	}
	return out
}

// member is an exported method or field of a named type under
// internal/ that no other package uses; kept when it satisfies an
// interface (a method) or encoding/json sees it (a field).
type member struct {
	pos          token.Pos
	key          string
	method, kept bool
}

// exportedMembers lists the exported methods and fields of the named
// types declared under internal/ that no other package uses: neither
// another package's non-test code nor the root package's tests, which
// program against the facade's aliases. An embedded field is left out,
// and so is an interface's own method set.
func exportedMembers(m *module, r *reach) []member {
	used := map[types.Object]bool{}
	for _, p := range append(sortedValues(m.pkgs), m.rootTests) {
		for _, o := range p.info.Uses {
			if o.Pkg() != nil && o.Pkg() != p.types {
				used[origin(o)] = true
			}
		}
	}
	ifaces := interfaces(m)
	var out []member
	for _, p := range sortedValues(m.pkgs) {
		if !strings.HasPrefix(p.path, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := range n.NumMethods() {
				if f := n.Method(i); f.Exported() && !used[f] {
					out = append(out, member{f.Pos(), p.path + "." + name + "." + f.Name(), true,
						satisfies(n, f, ifaces)})
				}
			}
			st, ok := n.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() && !f.Embedded() && !used[f] {
					out = append(out, member{f.Pos(), p.path + "." + name + "." + f.Name(), false,
						r.jsonSeen[n]})
				}
			}
		}
	}
	return out
}

// interfaces lists every interface type the module declares or names
// from the standard library, error among them.
func interfaces(m *module) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var add func(p *types.Package)
	add = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				out = append(out, tn.Type().Underlying().(*types.Interface))
			}
		}
		for _, imp := range p.Imports() {
			add(imp)
		}
	}
	for _, p := range sortedValues(m.pkgs) {
		add(p.types)
	}
	return out
}

// satisfies reports whether method f of n is one of an interface's
// methods that n or *n implements, or one the standard library calls on
// any value (implicitMethods). A generic type matches on the method's
// name alone.
func satisfies(n *types.Named, f *types.Func, ifaces []*types.Interface) bool {
	if implicitMethods[f.Name()] {
		return true
	}
	for _, it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		named := false
		for i := range it.NumMethods() {
			named = named || it.Method(i).Name() == f.Name()
		}
		if named && (n.TypeParams().Len() > 0 || types.Implements(types.NewPointer(n), it)) {
			return true
		}
	}
	return false
}

// TestFacadeSurface holds the root facade to what its users use. A name
// it exports passes if cmd/ or the root package's tests and examples
// use it (the README quotes one example, see TestReadmeQuotesExample);
// if its declaration is named in the
// declaration of one that passes; or if it shares a const or var group
// with one that passes, so a family such as the time units or the NIC
// models stays whole.
func TestFacadeSurface(t *testing.T) {
	m := mustLoad(t)
	root := m.pkgs[""]
	decls := map[types.Object]ast.Node{}
	groups := map[types.Object]*ast.GenDecl{}
	for _, f := range root.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[root.info.Defs[d.Name]] = d.Type
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						decls[root.info.Defs[sp.Name]] = sp
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							decls[root.info.Defs[n]] = sp
							groups[root.info.Defs[n]] = d
						}
					}
				}
			}
		}
	}
	pass := map[types.Object]bool{}
	var work []types.Object
	mark := func(o types.Object) {
		if o.Pkg() == root.types && o.Exported() && o.Parent() == root.types.Scope() && !pass[o] {
			pass[o] = true
			work = append(work, o)
		}
	}
	for _, p := range append(sortedValues(m.pkgs), m.rootTests) {
		if strings.HasPrefix(p.path, "cmd/") || p == m.rootTests {
			for _, o := range p.info.Uses {
				mark(o)
			}
		}
	}
	families := map[*ast.GenDecl]bool{}
	for o := range pass {
		if g := groups[o]; g != nil {
			families[g] = true
		}
	}
	for member, g := range groups {
		if families[g] {
			mark(member)
		}
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if d := decls[o]; d != nil {
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && root.info.Uses[id] != nil {
					mark(root.info.Uses[id])
				}
				return true
			})
		}
	}
	for _, name := range root.types.Scope().Names() {
		if o := root.types.Scope().Lookup(name); o.Exported() && !pass[o] {
			t.Errorf("%s: the facade exports %s, which no example, command or root test uses; delete it",
				m.fset.Position(o.Pos()), name)
		}
	}
}

// attachLayers are the layers core wires per node, and qos, whose
// observers its own Install and Bind hand over at construction.
var attachLayers = []string{"internal/netsim", "internal/nicsim", "internal/pcie", "internal/msgring",
	"internal/dmo", "internal/sched", "internal/hostsim", "internal/qos"}

// observerTypes are the types an attach method takes: a trace sink or
// tracer, a metrics registry, an invariant checker.
var observerTypes = map[string]bool{"internal/obs.Sink": true, "internal/obs.Tracer": true,
	"internal/obs.Registry": true, "internal/invariant.Checker": true}

// TestAttachPointContracts: each type of a layer exports at most one
// method taking an observer, so AddNode wires a layer with one call and
// a second hook family cannot grow back beside the first.
func TestAttachPointContracts(t *testing.T) {
	m := mustLoad(t)
	for _, path := range attachLayers {
		scope := m.pkgs[path].types.Scope()
		for _, name := range scope.Names() {
			named, ok := scope.Lookup(name).Type().(*types.Named)
			if !ok {
				continue
			}
			var attach []string
			for i := range named.NumMethods() {
				if f := named.Method(i); f.Exported() && takesObserver(f.Type().(*types.Signature)) {
					attach = append(attach, f.Name())
				}
			}
			if len(attach) > 1 {
				t.Errorf("%s.%s exports %d attach methods (%s): a layer has one attach point; merge them",
					path, name, len(attach), strings.Join(attach, ", "))
			}
		}
	}
}

// takesObserver reports whether a parameter is an observer type, by
// pointer or in a slice.
func takesObserver(sig *types.Signature) bool {
	for i := range sig.Params().Len() {
		typ := sig.Params().At(i).Type()
		if sl, ok := typ.(*types.Slice); ok {
			typ = sl.Elem()
		}
		if ptr, ok := typ.(*types.Pointer); ok {
			if n, ok := ptr.Elem().(*types.Named); ok && n.Obj().Pkg() != nil &&
				observerTypes[relPath(n.Obj().Pkg())+"."+n.Obj().Name()] {
				return true
			}
		}
	}
	return false
}

// TestFreeListOwnership is the ownership guard for pooled records:
// every use of (*sim.FreeList[T]).Put sits in the package that declares
// T, so only the owner recycles its records, and so only the owner has
// to poison them on release.
func TestFreeListOwnership(t *testing.T) {
	m := mustLoad(t)
	fl := m.pkgs["internal/sim"].types.Scope().Lookup("FreeList").Type().(*types.Named)
	var put *types.Func
	for i := range fl.NumMethods() {
		if fl.Method(i).Name() == "Put" {
			put = fl.Method(i)
		}
	}
	if put == nil {
		t.Fatal("sim.FreeList has no Put method")
	}
	var errs []finding
	uses := 0
	for _, p := range sortedValues(m.pkgs) {
		for id, o := range p.info.Uses {
			f, ok := o.(*types.Func)
			if !ok || f.Origin() != put {
				continue
			}
			uses++
			recv := f.Type().(*types.Signature).Recv().Type().(*types.Pointer).Elem().(*types.Named)
			rec := recv.TypeArgs().At(0)
			owner := p.types
			if n, ok := rec.(*types.Named); ok {
				owner = n.Obj().Pkg()
			}
			if owner != p.types {
				errs = append(errs, finding{id.Pos(), strings.TrimPrefix(rec.String(), modulePath+"/"), "is recycled by " + display(p.path) +
					", which does not declare it; only the owning package may Put its records"})
			}
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].pos < errs[j].pos })
	for _, e := range errs {
		t.Errorf("%s: %s %s", m.fset.Position(e.pos), e.key, e.why)
	}
	if uses == 0 {
		t.Error("nothing calls sim.FreeList.Put; the guard checks nothing")
	}
}

// reach is the reachability audit's state.
type reach struct {
	// decls maps every declared function, method, type, package-level
	// value, field and interface method to what reaching it uses of its
	// declaration.
	decls map[types.Object]site
	// owner maps a method, field or interface method to its named type.
	owner   map[types.Object]types.Object
	reached map[types.Object]bool
	work    []site
	// built holds the named types reached code has a value of; called,
	// the interfaces it calls a method of, by method name.
	built    map[*types.TypeName]bool
	called   map[string]map[*types.Interface]bool
	jsonSeen map[types.Type]bool
}

// site is a syntax tree to walk and the package that declares it.
type site struct {
	p *pkg
	n ast.Node
}

// newReach indexes the module's declarations and queues the roots,
// the facade's exported names among them.
func newReach(m *module) *reach {
	r := &reach{decls: map[types.Object]site{}, owner: map[types.Object]types.Object{},
		reached: map[types.Object]bool{}, built: map[*types.TypeName]bool{},
		called: map[string]map[*types.Interface]bool{}, jsonSeen: map[types.Type]bool{}}
	for _, p := range sortedValues(m.pkgs) {
		for _, f := range p.files {
			r.index(p, f)
		}
	}
	root := m.pkgs[""].types.Scope()
	for _, name := range root.Names() {
		if o := root.Lookup(name); o.Exported() {
			r.mark(o)
		}
	}
	for _, f := range m.rootTests.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Example") {
				r.work = append(r.work, site{m.rootTests, fd})
			}
		}
	}
	return r
}

// index records the declarations of one file and queues its roots:
// init, main and the package-level initializers.
func (r *reach) index(p *pkg, f *ast.File) {
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
			for _, sp := range g.Specs {
				for _, v := range sp.(*ast.ValueSpec).Values {
					r.work = append(r.work, site{p, v})
				}
			}
		}
		if fd, ok := d.(*ast.FuncDecl); ok {
			if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && p.name == "main") {
				r.work = append(r.work, site{p, fd})
			}
			o := p.info.Defs[fd.Name]
			r.decls[o] = site{p, fd}
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				r.owner[o] = t.(*types.Named).Obj()
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			tn := p.info.Defs[n.Name]
			r.decls[tn] = site{p, typeUses(n)}
			ast.Inspect(n.Type, func(n ast.Node) bool {
				var fields *ast.FieldList
				switch n := n.(type) {
				case *ast.StructType:
					fields = n.Fields
				case *ast.InterfaceType:
					fields = n.Methods
				default:
					return true
				}
				for _, fd := range fields.List {
					names := fd.Names
					if len(names) == 0 {
						if _, ok := n.(*ast.StructType); !ok {
							continue // an embedded interface comes with its interface
						}
						names = []*ast.Ident{embeddedName(fd.Type)}
					}
					for _, name := range names {
						if o := p.info.Defs[name]; o != nil {
							r.decls[o] = site{p, fd.Type}
							r.owner[o] = tn
						}
					}
				}
				return true
			})
		case *ast.GenDecl:
			if n.Tok == token.CONST || n.Tok == token.VAR {
				for _, sp := range n.Specs {
					vs := sp.(*ast.ValueSpec)
					uses := &ast.FieldList{}
					if vs.Type != nil {
						uses.List = append(uses.List, &ast.Field{Type: vs.Type})
					}
					if n.Tok == token.CONST {
						for _, v := range vs.Values {
							uses.List = append(uses.List, &ast.Field{Type: v})
						}
					}
					for _, name := range vs.Names {
						r.decls[p.info.Defs[name]] = site{p, uses}
					}
				}
			}
		}
		return true
	})
}

// typeUses is what reaching a type uses of its declaration: its type
// parameters and, unless it is a struct or an interface, its whole
// definition. Fields and interface methods are reached one by one;
// embedded interfaces come with the interface.
func typeUses(sp *ast.TypeSpec) ast.Node {
	uses := &ast.FieldList{}
	if sp.TypeParams != nil {
		uses.List = append(uses.List, sp.TypeParams.List...)
	}
	switch t := sp.Type.(type) {
	case *ast.StructType:
	case *ast.InterfaceType:
		for _, f := range t.Methods.List {
			if len(f.Names) == 0 {
				uses.List = append(uses.List, f)
			}
		}
	default:
		uses.List = append(uses.List, &ast.Field{Type: t})
	}
	return uses
}

// embeddedName is the identifier that names an embedded field.
func embeddedName(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.SelectorExpr:
			return e.Sel
		case *ast.Ident:
			return e
		default:
			panic("unexpected embedded field")
		}
	}
}

// origin maps an instantiated object to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok && !o.IsAlias() {
			return n.Origin().Obj()
		}
	}
	return o
}

func (r *reach) mark(o types.Object) {
	if o == nil || o.Pkg() == nil || !isModule(o.Pkg().Path()) {
		return
	}
	o = origin(o)
	if r.reached[o] {
		return
	}
	r.reached[o] = true
	if s, ok := r.decls[o]; ok {
		r.work = append(r.work, s)
	}
	switch o := o.(type) {
	case *types.Const:
		r.markNamed(o.Type())
	case *types.Var:
		if !o.IsField() {
			r.markNamed(o.Type())
		}
	case *types.TypeName:
		if o.IsAlias() {
			r.markNamed(o.Type())
		}
	}
}

// markNamed reaches the named type t is or points to.
func (r *reach) markNamed(t types.Type) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		r.mark(n.Obj())
	}
}

// build records that reached code has a value of type t.
func (r *reach) build(t types.Type) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil && isModule(n.Obj().Pkg().Path()) {
		r.built[n.Origin().Obj()] = true
		r.mark(n.Obj())
	}
}

// embedded reaches the embedded fields a selection of index on t steps
// through.
func (r *reach) embedded(t types.Type, index []int) {
	for _, i := range index[:len(index)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		r.mark(st.Field(i))
		t = st.Field(i).Type()
	}
}

// compared reaches the fields == reads.
func (r *reach) compared(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			r.mark(u.Field(i))
			r.compared(u.Field(i).Type())
		}
	case *types.Array:
		r.compared(u.Elem())
	}
}

// encoded reaches every field encoding/json sees through t.
func (r *reach) encoded(t types.Type) {
	if r.jsonSeen[t] {
		return
	}
	r.jsonSeen[t] = true
	switch u := t.(type) {
	case *types.Named:
		r.mark(u.Obj())
		r.encoded(u.Underlying())
	case *types.Pointer:
		r.encoded(u.Elem())
	case *types.Slice:
		r.encoded(u.Elem())
	case *types.Array:
		r.encoded(u.Elem())
	case *types.Map:
		r.encoded(u.Key())
		r.encoded(u.Elem())
	case *types.Struct:
		for i := range u.NumFields() {
			r.mark(u.Field(i))
			r.encoded(u.Field(i).Type())
		}
	}
}

// callIface records a call of interface method f.
func (r *reach) callIface(f *types.Func) {
	iface := f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if r.called[f.Name()] == nil {
		r.called[f.Name()] = map[*types.Interface]bool{}
	}
	r.called[f.Name()][iface] = true
}

// walk marks what one reached syntax tree uses. The identifiers in skip
// do not reach what they name: a struct literal's keys, and the fields
// an assignment, ++, --, copy or a write-back (writeBack, raise) writes.
func (r *reach) walk(s site) {
	info := s.p.info
	skip := map[*ast.Ident]bool{}
	ast.Inspect(s.n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					written(info, lhs, skip)
				}
				writeBack(info, n, skip)
			}
		case *ast.IncDecStmt:
			written(info, n.X, skip)
		case *ast.IfStmt:
			raise(info, n, skip)
		case *ast.Ident:
			if o := info.Uses[n]; o != nil && !skip[n] {
				if f, ok := o.(*types.Func); ok {
					if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						r.callIface(f)
					}
				}
				r.mark(o)
			}
			if o, ok := info.Defs[n].(*types.Var); ok {
				r.build(o.Type())
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil {
				r.embedded(sel.Recv(), sel.Index())
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						skip[kv.Key.(*ast.Ident)] = true
					} else {
						r.mark(st.Field(i))
					}
				}
			}
		case *ast.CallExpr:
			if isBuiltin(info, n.Fun, "copy") {
				written(info, n.Args[0], skip)
			}
			r.call(info, n)
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				r.compared(info.TypeOf(n.X))
			}
		case *ast.MapType:
			r.compared(info.TypeOf(n.Key))
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok && !tv.IsType() {
				r.build(tv.Type)
			}
		}
		return true
	})
}

// written adds to skip the fields an assignment to lhs writes: the
// field it selects and, while the target is stored inside it, the field
// that holds it. x.f = v, x.f[i] = v, x.f.g = v (f a struct value) and
// copy(x.f[:], src) write f; x.p.g = v reads p to find g.
func written(info *types.Info, lhs ast.Expr, skip map[*ast.Ident]bool) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.SliceExpr:
			lhs = e.X
			continue
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				skip[e.Sel] = true
				if _, ok := info.TypeOf(e.X).Underlying().(*types.Struct); ok {
					lhs = e.X
					continue
				}
			}
		}
		return
	}
}

// writeBack adds to skip the reads of an assignment's target that only
// feed the value written back to it: x.f = max(x.f, n), min likewise,
// and x.f = append(x.f, v).
func writeBack(info *types.Info, a *ast.AssignStmt, skip map[*ast.Ident]bool) {
	if a.Tok != token.ASSIGN || len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return
	}
	c, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	var args []ast.Expr
	switch {
	case isBuiltin(info, c.Fun, "append"):
		args = c.Args[:1]
	case isBuiltin(info, c.Fun, "max"), isBuiltin(info, c.Fun, "min"):
		args = c.Args
	default:
		return
	}
	target := types.ExprString(a.Lhs[0])
	for _, arg := range args {
		if types.ExprString(arg) == target {
			written(info, arg, skip)
		}
	}
}

// isBuiltin reports whether fun names the builtin function name.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// raise adds to skip the read in the condition of if n > x.f { x.f = n }
// (any order comparison, either operand order, an init allowed): it
// only decides whether to write the field back.
func raise(info *types.Info, s *ast.IfStmt, skip map[*ast.Ident]bool) {
	c, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok || s.Else != nil || len(s.Body.List) != 1 ||
		c.Op != token.LSS && c.Op != token.GTR && c.Op != token.LEQ && c.Op != token.GEQ {
		return
	}
	a, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || a.Tok != token.ASSIGN || len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return
	}
	lhs, rhs := types.ExprString(a.Lhs[0]), types.ExprString(a.Rhs[0])
	for _, pair := range [][2]ast.Expr{{c.X, c.Y}, {c.Y, c.X}} {
		if types.ExprString(pair[0]) == lhs && types.ExprString(pair[1]) == rhs {
			written(info, pair[0], skip)
		}
	}
}

// call handles a call into the standard library: it may call the
// methods of an interface parameter, and encoding/json reads every field
// of what it is handed.
func (r *reach) call(info *types.Info, c *ast.CallExpr) {
	var id *ast.Ident
	switch f := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || isModule(fn.Pkg().Path()) {
		return
	}
	if fn.Pkg().Path() == "encoding/json" {
		for _, a := range c.Args {
			r.encoded(info.TypeOf(a))
		}
	}
	params := fn.Type().(*types.Signature).Params()
	for i := range params.Len() {
		if it, ok := params.At(i).Type().Underlying().(*types.Interface); ok {
			for j := range it.NumMethods() {
				r.callIface(it.Method(j))
			}
		}
	}
}

// implicitMethods are called by the standard library on any value it
// formats or unwraps.
var implicitMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true}

// dispatched reports whether a call through an interface can reach f:
// some called interface has a method of f's name, and f's receiver type
// implements it. A generic receiver matches on the name alone.
func (r *reach) dispatched(f *types.Func) bool {
	if implicitMethods[f.Name()] {
		return true
	}
	recv := f.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	generic := ok && n.TypeParams().Len() > 0
	for iface := range r.called[f.Name()] {
		// *T's method set holds T's, so *T implements whatever T does.
		if generic || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// run walks until nothing new is reached.
func (r *reach) run() {
	for {
		for len(r.work) > 0 {
			s := r.work[len(r.work)-1]
			r.work = r.work[:len(r.work)-1]
			r.walk(s)
		}
		for tn := range r.built {
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				ms := types.NewMethodSet(t)
				for i := range ms.Len() {
					f := origin(ms.At(i).Obj()).(*types.Func)
					if !r.reached[f] && isModule(f.Pkg().Path()) && r.dispatched(f) {
						r.embedded(t, ms.At(i).Index())
						r.mark(f)
					}
				}
			}
		}
		if len(r.work) == 0 {
			return
		}
	}
}

// unreached lists the declared identifiers nothing reaches, leaving out
// the members of an unreached type and anything declared in a function.
func (r *reach) unreached() []finding {
	var out []finding
	for o := range r.decls {
		if r.reached[o] || o.Name() == "_" || o.Name() == "init" || o.Name() == "main" {
			continue
		}
		key, top := relPath(o.Pkg())+"."+o.Name(), o
		if tn := r.owner[o]; tn != nil {
			if !r.reached[tn] {
				continue
			}
			key, top = relPath(o.Pkg())+"."+tn.Name()+"."+o.Name(), tn
		}
		if top.Parent() != top.Pkg().Scope() {
			continue
		}
		out = append(out, finding{o.Pos(), key, "is reached by no program; delete it"})
	}
	return out
}

// TestCensusFile checks the form of testdata/unexecuted.txt, which
// make census holds the merged coverage of its roots to: every line
// names a file of the module and parses as a count, a min-max range or
// a classified function; each file has one count and each function one
// line; every class is known; the test an error path names exists; and
// a test seam names its surfaceAllowed entry, so the census and the
// reachability audit give a kept name one reason.
func TestCensusFile(t *testing.T) {
	m := mustLoad(t)
	const path = "testdata/unexecuted.txt"
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, line := range strings.Split(string(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		file, rest, _ := strings.Cut(line, " ")
		if _, err := os.Stat(file); err != nil || !strings.HasSuffix(file, ".go") {
			t.Errorf("%s:%d: %q is no Go file of the module", path, i+1, file)
		}
		if sm := censusCount.FindStringSubmatch(rest); sm != nil {
			lo, _ := strconv.Atoi(sm[1])
			if hi, _ := strconv.Atoi(sm[2]); sm[2] != "" && hi < lo {
				t.Errorf("%s:%d: range %s has min above max", path, i+1, rest)
			}
			if seen[file] {
				t.Errorf("%s:%d: %s has a second count", path, i+1, file)
			}
			seen[file] = true
			continue
		}
		fn, class, ok := strings.Cut(rest, ": ")
		if !ok || fn == "" || strings.Contains(fn, " ") {
			t.Errorf("%s:%d: want <file> <count>, <file> <min>-<max> or <file> <function>: <class>", path, i+1)
			continue
		}
		if seen[file+" "+fn] {
			t.Errorf("%s:%d: %s %s has a second line", path, i+1, file, fn)
		}
		seen[file+" "+fn] = true
		kind, arg, _ := strings.Cut(class, ": ")
		switch kind {
		case "error path":
			if !m.tests[arg] {
				t.Errorf("%s:%d: error path names %q, which is no test of the module", path, i+1, arg)
			}
		case "test seam":
			if _, ok := surfaceAllowed[arg]; !ok {
				t.Errorf("%s:%d: test seam names %q, which is no surfaceAllowed key", path, i+1, arg)
			}
		case "violation path", "frozen benchmark", "String/Error":
			if arg != "" {
				t.Errorf("%s:%d: class %q takes no argument", path, i+1, kind)
			}
		default:
			t.Errorf("%s:%d: unknown class %q; want error path: <Test>, violation path, "+
				"test seam: <surfaceAllowed key>, frozen benchmark or String/Error", path, i+1, class)
		}
	}
}

// censusCount matches a census count line's count or min-max range.
var censusCount = regexp.MustCompile(`^(\d+)(?:-(\d+))?$`)

// TestReadmeQuotesExample keeps the README's deployment-spec block a
// quote of Example_deploymentSpec, indentation aside, so the facade
// names it shows are compiled and cannot drift.
func TestReadmeQuotesExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	example, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Deployment specs")
	if ok {
		_, section, ok = strings.Cut(section, "```go\n")
	}
	block, _, ok := strings.Cut(section, "```")
	if !ok {
		t.Fatal("README.md: no go block under Deployment specs")
	}
	unindent := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		for i, l := range lines {
			lines[i] = strings.TrimSpace(l)
		}
		return strings.Join(lines, "\n")
	}
	if !strings.Contains(unindent(string(example)), unindent(block)) {
		t.Error("README.md's Deployment specs block is not a quote of Example_deploymentSpec in example_test.go; copy it from there")
	}
}

// TestReadmeNamesExamples keeps the README's list of examples in step
// with example_test.go: a README line that names, in backticks, an
// Example function the file does not declare fails with its line, and
// so does a line naming an examples/ path, which no longer exists; an
// Example function the README does not name fails too.
func TestReadmeNamesExamples(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := mustLoad(t)
	declared := map[string]bool{}
	for _, f := range m.rootTests.files {
		if filepath.Base(m.fset.Position(f.Pos()).Filename) != "example_test.go" {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Example") {
				declared[fd.Name.Name] = true
			}
		}
	}
	named := map[string]bool{}
	for i, line := range strings.Split(string(readme), "\n") {
		if strings.Contains(line, "examples/") {
			t.Errorf("README.md:%d: names an examples/ path; the examples are Example functions in example_test.go", i+1)
		}
		for _, sm := range exampleCite.FindAllStringSubmatch(line, -1) {
			named[sm[1]] = true
			if !declared[sm[1]] {
				t.Errorf("README.md:%d: names %s, which example_test.go does not declare", i+1, sm[1])
			}
		}
	}
	for _, name := range sortedKeys(declared) {
		if !named[name] {
			t.Errorf("README.md does not name %s; list it with the bundled examples", name)
		}
	}
}

// exampleCite matches an Example function named in backticks.
var exampleCite = regexp.MustCompile("`(Example\\w*)`")

// TestDocsNameMakeTargets checks that every backticked make invocation
// in the docs names a Makefile target, so a deleted or renamed target
// leaves no stale instruction behind. It reports file:line.
func TestDocsNameMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(mk), -1) {
		for _, name := range strings.Fields(m[1]) {
			targets[name] = true
		}
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeCite.FindAllSubmatchIndex(text, -1) {
			if target := string(text[m[2]:m[3]]); !targets[target] {
				line := 1 + strings.Count(string(text[:m[0]]), "\n")
				t.Errorf("%s:%d: `make %s` names no target of Makefile", doc, line, target)
			}
		}
	}
}

var (
	// makeRule matches a Makefile rule's targets, not a := or ?= assignment.
	makeRule = regexp.MustCompile(`(?m)^([\w.-]+(?:[ \t]+[\w.-]+)*)[ \t]*:(?:[^=]|$)`)
	// makeCite matches a backticked make invocation, which may wrap.
	makeCite = regexp.MustCompile("`make\\s+([^`\\s]+)")
)

// TestViewsDoNotEscape is the view-escape guard. A view is a result of
// ObjRead, of dmo.Store.Read (a Read call with four arguments), of
// decodeCmd, of msgring.Channel.HostPoll, or of a function of the same
// package that returns one, and so is a parameter of type
// []msgring.Message — the batch a NICPoll callback receives; a slice or
// field of a view, or an append of one as an element, is a view too. No
// function may assign a view to a struct field, to an element reached
// through one, or to a package variable, nor put one in a composite
// literal: what outlives the borrow must be copied first (DESIGN.md §4).
// Views are tracked by variable name, per function, in source order.
func TestViewsDoNotEscape(t *testing.T) {
	m := mustLoad(t)
	for _, path := range sortedKeys(m.pkgs) {
		p := m.pkgs[path]
		globals := map[string]bool{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
					for _, sp := range g.Specs {
						for _, n := range sp.(*ast.ValueSpec).Names {
							globals[n.Name] = true
						}
					}
				}
			}
		}
		// A function returning a view is a source too; iterate so a
		// helper of a helper counts.
		sources := map[string]bool{"ObjRead": true, "decodeCmd": true, "HostPoll": true}
		for changed := true; changed; {
			changed = false
			for _, f := range p.files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil || sources[fd.Name.Name] {
						continue
					}
					v := &viewScan{sources: sources, pkg: p.name}
					v.borrowParams(fd.Type)
					if v.returnsView(fd.Body) {
						sources[fd.Name.Name] = true
						changed = true
					}
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				where := filepath.Base(m.fset.Position(fd.Pos()).Filename) + ":" + fd.Name.Name
				if _, ok := viewEscapeAllowed[where]; ok {
					continue
				}
				v := &viewScan{sources: sources, globals: globals, pkg: p.name}
				v.borrowParams(fd.Type)
				v.scan(fd.Body)
				for _, e := range v.escapes {
					t.Errorf("%s: %s stores a view in %s; copy it first",
						m.fset.Position(e.Pos()), fd.Name.Name, describe(e))
				}
			}
		}
	}
}

// viewScan tracks which local names of one function hold a view.
type viewScan struct {
	sources map[string]bool // function names whose first result is a view
	globals map[string]bool // the package's variables
	pkg     string          // the package's name
	views   map[string]bool
	escapes []ast.Expr // where a view was stored
}

// borrowParams marks the parameters of ft that hold a message batch as
// views: []msgring.Message, or []Message inside package msgring.
func (v *viewScan) borrowParams(ft *ast.FuncType) {
	if v.views == nil {
		v.views = map[string]bool{}
	}
	for _, f := range ft.Params.List {
		if v.isBatch(f.Type) {
			for _, n := range f.Names {
				v.views[n.Name] = true
			}
		}
	}
}

func (v *viewScan) isBatch(x ast.Expr) bool {
	at, ok := x.(*ast.ArrayType)
	if !ok || at.Len != nil {
		return false
	}
	switch e := at.Elt.(type) {
	case *ast.Ident:
		return v.pkg == "msgring" && e.Name == "Message"
	case *ast.SelectorExpr:
		id, ok := e.X.(*ast.Ident)
		return ok && id.Name == "msgring" && e.Sel.Name == "Message"
	}
	return false
}

// isSource reports whether call returns a view.
func (v *viewScan) isSource(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return v.sources[fn.Name]
	case *ast.SelectorExpr:
		return v.sources[fn.Sel.Name] || fn.Sel.Name == "Read" && len(call.Args) == 4
	}
	return false
}

// carries reports whether e evaluates to a view or to part of one.
func (v *viewScan) carries(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return v.views[e.Name]
	case *ast.ParenExpr:
		return v.carries(e.X)
	case *ast.SliceExpr:
		return v.carries(e.X)
	case *ast.SelectorExpr:
		return v.carries(e.X)
	case *ast.CallExpr:
		if fn, ok := e.Fun.(*ast.Ident); !ok || fn.Name != "append" || len(e.Args) == 0 {
			return v.isSource(e)
		}
		if v.carries(e.Args[0]) {
			return true
		}
		if e.Ellipsis.IsValid() {
			return false // append(dst, view...) copies the bytes
		}
		for _, a := range e.Args[1:] {
			if v.carries(a) {
				return true
			}
		}
	}
	return false
}

// assign tracks an assignment or declaration: a local name holds a view
// exactly when its latest value does, and a view assigned anywhere else
// escapes.
func (v *viewScan) assign(lhs, rhs []ast.Expr) {
	if v.views == nil {
		v.views = map[string]bool{}
	}
	for i, l := range lhs {
		var view bool
		switch {
		case len(rhs) == len(lhs):
			view = v.carries(rhs[i])
		case len(rhs) == 1 && i == 0: // view, err := source(...)
			call, ok := rhs[0].(*ast.CallExpr)
			view = ok && v.isSource(call)
		}
		if id, ok := l.(*ast.Ident); ok && (id.Name == "_" || !v.globals[id.Name]) {
			v.views[id.Name] = view
		} else if view {
			v.escapes = append(v.escapes, l)
		}
	}
}

func (v *viewScan) scan(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			v.borrowParams(n.Type)
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				v.scan(r) // closures and composite literals on the right
			}
			v.assign(n.Lhs, n.Rhs)
			return false
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			v.assign(lhs, n.Values)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if v.carries(el) {
					v.escapes = append(v.escapes, n)
				}
			}
		}
		return true
	})
}

// returnsView reports whether a function body returns a view as its
// first result.
func (v *viewScan) returnsView(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure's returns are its own
		case *ast.AssignStmt:
			v.assign(n.Lhs, n.Rhs)
		case *ast.ReturnStmt:
			found = found || len(n.Results) > 0 && v.carries(n.Results[0])
		}
		return true
	})
	return found
}

// describe names the destination of an escaping view.
func describe(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return "package variable " + e.Name
	case *ast.SelectorExpr:
		return exprString(e)
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.CompositeLit:
		return "a composite literal"
	}
	return "an expression"
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	}
	return "(…)"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedValues[V any](m map[string]V) []V {
	out := make([]V, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, m[k])
	}
	return out
}
