package ipipe_test

// The module's contracts, checked instead of described:
//
//   - TestImportContracts: which package may import which (the
//     contracts table below is the dependency graph);
//   - TestExportedSurface: what an internal package may export;
//   - TestFacadeSurface: what the root facade may export;
//   - TestViewsDoNotEscape: where a borrowed view may not be stored.
//
// Each reads the source with go/parser and nothing else, so each rule is
// a syntactic approximation; its limits are stated where it is defined.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
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
		[]string{"internal/actor", "internal/sim"}},
	{"internal/isolation", "§3.4 isolation: DMO region guard and DoS watchdog",
		[]string{"internal/actor", "internal/sim"}},
	{"internal/sched", "the hybrid FCFS+DRR scheduler with migration and autoscaling (§3.2)",
		[]string{"internal/actor", "internal/invariant", "internal/sim", "internal/stats"}},
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
	{"internal/microbench", "Table 3's offloaded workload suite",
		[]string{"internal/actor", "internal/sim", "internal/spec"}},
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
			"internal/mesh", "internal/microbench", "internal/msgring", "internal/nicsim", "internal/obs",
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
			"internal/baseline", "internal/core", "internal/deploy", "internal/invariant", "internal/mesh",
			"internal/obs", "internal/sim", "internal/spec", "internal/workload"}},
	{"cmd/ipipe-trace", "validates trace and metrics artifacts",
		[]string{"internal/obs"}},
	{"examples/quickstart", "one node, one echo actor", []string{""}},
	{"examples/kvstore", "sharded, batched replicated KV under Zipf load", []string{"", "internal/workload"}},
	{"examples/transactions", "OCC/2PC with contention", []string{""}},
	{"examples/analytics", "the RTA pipeline with live migration", []string{""}},
	{"examples/netfunc", "firewall and IPSec over real frames", []string{""}},
	{"examples/isolation", "region guard and watchdog between tenants", []string{""}},
	{"benchmark", "the repository benchmark; frozen, so its imports and every name it uses are fixed",
		[]string{"internal/actor", "internal/apps/dt", "internal/apps/rkv", "internal/core", "internal/dmo",
			"internal/hostsim", "internal/invariant", "internal/msgring", "internal/netsim", "internal/nicsim",
			"internal/obs", "internal/pcie", "internal/sched", "internal/sim", "internal/spec", "internal/stats",
			"internal/workload"}},
}

// surfaceAllowed lists exported internal identifiers that pass the
// surface audit although no other package's non-test code names them,
// each with the reason it is API all the same.
var surfaceAllowed = map[string]string{
	"internal/dmo.ErrNoSuchObject":    dmoErrors,
	"internal/dmo.ErrRegionExhausted": dmoErrors,
	"internal/dmo.ErrBounds":          dmoErrors,
	"internal/dmo.ErrNoRegion":        dmoErrors,
	"internal/qos.LaneControl":        qosLanes,
	"internal/qos.LaneData":           qosLanes,
	"internal/qos.LaneTelemetry":      qosLanes,
	"internal/workload.MaxUncappedTimeout": "the ceiling GrowTimeout saturates at when a policy sets no " +
		"MaxTimeout: how long an uncapped retry can wait",
	"internal/apps/dt.Partition": "the key-to-participant rule is how a client makes a transaction " +
		"span one store or several; deploy's crash-atomicity test relies on it",
}

const (
	dmoErrors = "actor.Ctx's DMO calls return these to application handlers, " +
		"which tell them apart with errors.Is"
	qosLanes = "name the indices of the [NumLanes] counter arrays LaneSched and Runtime.LaneTotals export"
)

// viewEscapeAllowed lists "file.go:function" pairs allowed to store a
// view, each with the reason the store is safe. It is empty: nothing
// keeps a view.
var viewEscapeAllowed = map[string]string{}

// pkg is one parsed package: its non-test files only.
type pkg struct {
	path  string // module-relative
	name  string
	files []*ast.File
}

type module struct {
	fset *token.FileSet
	pkgs map[string]*pkg
	// rootTests are the root package's test files.
	rootTests []*ast.File
}

// loadModule parses the module once: every package's non-test files,
// and the root package's tests.
var loadModule = sync.OnceValues(func() (*module, error) {
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
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
		if test && dir != "" {
			return nil
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if test {
			m.rootTests = append(m.rootTests, f)
			return nil
		}
		if m.pkgs[dir] == nil {
			m.pkgs[dir] = &pkg{path: dir, name: f.Name.Name}
		}
		m.pkgs[dir].files = append(m.pkgs[dir].files, f)
		return nil
	})
	return m, err
})

func mustLoad(t *testing.T) *module {
	t.Helper()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return m
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

// decl is one exported top-level identifier.
type decl struct {
	pkg, name string
	pos       token.Pos
	node      ast.Node     // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	typ       ast.Expr     // a value's declared type, implicit in a const group
	group     *ast.GenDecl // nil for a function
}

func (d *decl) key() string { return d.pkg + "." + d.name }

// surface is the exported top-level identifiers of some packages, keyed
// "path.Name", the exported methods of their types, and which of them
// pass so far.
type surface struct {
	m       *module
	decls   map[string]*decl
	methods map[string][]*ast.FuncDecl // "path.Type" → exported methods
	pass    map[string]bool
	work    []string
}

func newSurface(m *module, paths ...string) *surface {
	s := &surface{m: m, decls: map[string]*decl{}, methods: map[string][]*ast.FuncDecl{}, pass: map[string]bool{}}
	for _, path := range paths {
		for _, f := range m.pkgs[path].files {
			s.collect(path, f)
		}
	}
	return s
}

func (s *surface) collect(path string, f *ast.File) {
	add := func(d *decl) { s.decls[d.key()] = d }
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add(&decl{pkg: path, name: d.Name.Name, pos: d.Name.Pos(), node: d})
			} else if recv := recvType(d); recv != "" {
				s.methods[path+"."+recv] = append(s.methods[path+"."+recv], d)
			}
		case *ast.GenDecl:
			var typ ast.Expr // a const spec without values repeats the previous type
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						add(&decl{pkg: path, name: sp.Name.Name, pos: sp.Name.Pos(), node: sp, group: d})
					}
				case *ast.ValueSpec:
					if sp.Type != nil || len(sp.Values) > 0 || d.Tok == token.VAR {
						typ = sp.Type
					}
					for _, n := range sp.Names {
						if n.IsExported() {
							add(&decl{pkg: path, name: n.Name, pos: n.Pos(), node: sp, typ: typ, group: d})
						}
					}
				}
			}
		}
	}
}

// mark passes key, if it is one of the surface's identifiers, and
// queues it for close.
func (s *surface) mark(key string) {
	if _, ok := s.decls[key]; ok && !s.pass[key] {
		s.pass[key] = true
		s.work = append(s.work, key)
	}
}

// markUses passes every identifier f names as pkg.Name, except those
// of f's own package.
func (s *surface) markUses(f *ast.File, own string) {
	imports := importNames(f, s.m.pkgs)
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok {
				if path, ok := imports[x.Name]; ok && path != own {
					s.mark(path + "." + sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// close passes the types named in the exported signature or exported
// fields of every passing identifier, and in the signatures of a passing
// type's exported methods, until nothing new passes.
func (s *surface) close() {
	for len(s.work) > 0 {
		key := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		d := s.decls[key]
		visit := func(n ast.Node) {
			imports := importNames(fileOf(s.m.pkgs[d.pkg], n.Pos()), s.m.pkgs)
			namedTypes(n, d.pkg, imports, s.mark)
		}
		switch n := d.node.(type) {
		case *ast.FuncDecl:
			visit(n.Type)
		case *ast.ValueSpec:
			if d.typ != nil {
				visit(d.typ)
			}
		case *ast.TypeSpec:
			if n.TypeParams != nil {
				visit(n.TypeParams)
			}
			if part := exportedPart(n.Type); part != nil {
				visit(part)
			}
			for _, m := range s.methods[key] {
				visit(m.Type)
			}
		}
	}
}

// failing lists the identifiers that do not pass, in source order.
func (s *surface) failing() []*decl {
	var out []*decl
	for key, d := range s.decls {
		if !s.pass[key] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// TestExportedSurface is the surface audit. An exported top-level
// identifier under internal/ passes if non-test code of another package
// (benchmark/, cmd/, examples/ and the root facade included) names it
// as pkg.Name; if it is a type named in the exported signature or
// exported fields of an identifier that passes; or if surfaceAllowed
// lists it with a reason. Methods are not audited.
func TestExportedSurface(t *testing.T) {
	m := mustLoad(t)
	var internal []string
	for path := range m.pkgs {
		if strings.HasPrefix(path, "internal/") {
			internal = append(internal, path)
		}
	}
	s := newSurface(m, internal...)
	for _, p := range m.pkgs {
		for _, f := range p.files {
			s.markUses(f, p.path)
		}
	}
	for _, key := range sortedKeys(surfaceAllowed) {
		if _, ok := s.decls[key]; !ok {
			t.Errorf("surfaceAllowed: %s is not an exported internal identifier; drop the entry", key)
		}
		s.mark(key)
	}
	s.close()
	for _, d := range s.failing() {
		t.Errorf("%s: %s is exported but no other package's non-test code uses it; unexport or delete it",
			m.fset.Position(d.pos), d.key())
	}
	t.Logf("%d exported top-level identifiers under internal/", len(s.decls))
}

// TestFacadeSurface holds the root facade to what its users use. A name
// it exports passes if examples/, cmd/ or the root package's tests use
// it as ipipe.Name (the README quotes one of those tests, see
// TestReadmeQuotesExample); if it is a type named in the signature of
// one that passes; or if it shares a const or var group with one that
// passes, so a family such as the time units or the NIC models stays
// whole.
func TestFacadeSurface(t *testing.T) {
	m := mustLoad(t)
	s := newSurface(m, "")
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.path, "examples/") || strings.HasPrefix(p.path, "cmd/") {
			for _, f := range p.files {
				s.markUses(f, p.path)
			}
		}
	}
	for _, f := range m.rootTests {
		s.markUses(f, "ipipe_test")
	}
	families := map[*ast.GenDecl]bool{}
	for key := range s.pass {
		if g := s.decls[key].group; g != nil && g.Tok != token.TYPE {
			families[g] = true
		}
	}
	for _, d := range s.decls {
		if families[d.group] {
			s.mark(d.key())
		}
	}
	s.close()
	for _, d := range s.failing() {
		t.Errorf("%s: the facade exports %s, which no example, command or root test uses; delete it",
			m.fset.Position(d.pos), d.name)
	}
}

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

// recvType is the receiver's type name, without pointer or type
// arguments.
func recvType(f *ast.FuncDecl) string {
	x := f.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch g := x.(type) {
	case *ast.IndexExpr:
		x = g.X
	case *ast.IndexListExpr:
		x = g.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// importNames maps the file's local names for module imports to their
// module-relative paths.
func importNames(f *ast.File, pkgs map[string]*pkg) map[string]string {
	m := map[string]string{}
	for _, spec := range f.Imports {
		rel, ok := modRel(strings.Trim(spec.Path.Value, `"`))
		if !ok || pkgs[rel] == nil {
			continue
		}
		name := pkgs[rel].name
		if spec.Name != nil {
			name = spec.Name.Name
		}
		m[name] = rel
	}
	return m
}

func fileOf(p *pkg, pos token.Pos) *ast.File {
	for _, f := range p.files {
		if f.Pos() <= pos && pos < f.End() {
			return f
		}
	}
	panic("position outside its package")
}

// exportedPart is what a caller outside the package can name through a
// type: a struct's exported and embedded fields, anything else whole;
// nil for a struct with neither.
func exportedPart(x ast.Expr) ast.Node {
	st, ok := x.(*ast.StructType)
	if !ok {
		return x
	}
	out := &ast.FieldList{}
	for _, f := range st.Fields.List {
		keep := len(f.Names) == 0 // embedded: promoted either way
		for _, n := range f.Names {
			keep = keep || n.IsExported()
		}
		if keep {
			out.List = append(out.List, f)
		}
	}
	if len(out.List) == 0 {
		return nil
	}
	return out
}

// namedTypes calls mark for every package-qualified name n mentions:
// same-package identifiers as pkgPath.Name, imported ones through the
// file's import names.
func namedTypes(n ast.Node, pkgPath string, imports map[string]string, mark func(string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[x.Name]; ok {
					mark(path + "." + n.Sel.Name)
				}
			}
			return false
		case *ast.Ident:
			if n.IsExported() {
				mark(pkgPath + "." + n.Name)
			}
		}
		return true
	})
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
