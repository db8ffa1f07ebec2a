package ipipe_test

// The module's contracts, checked instead of described:
//
//   - TestImportContracts: which package may import which (the
//     contracts table below is the dependency graph);
//   - TestExportedSurface: what non-test code may declare — nothing no
//     program reaches, and no export only its own package uses;
//   - TestFacadeSurface: what the root facade may export;
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

// surfaceAllowed lists the identifiers TestExportedSurface passes
// although it would fail them, each with its reason. Most are test
// seams: no program reaches them, and the test the reason names is
// their subject, so they stay as long as it does. The rest are exported
// with no user in another package, and are API all the same.
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

	"benchmark.metricDef.driver":      benchFrozen,
	"benchmark.metricDef.driverBound": benchFrozen,
	"benchmark.wlSpec.why":            benchFrozen,
	"internal/msgring.Message.DstActor": "benchmark/layers.go addresses its ring messages with it; " +
		"benchmark/ is frozen",

	"internal/spec.NICModel.Vendor": table1,
	"internal/spec.NICModel.OnPath": table1,
	"internal/spec.NICModel.FullOS": table1,

	"internal/actor.Table.Len":                "TestTable counts the table's entries",
	"internal/apps/nf.TCAM.Size":              "TestTCAMScanDepth sizes the rule table",
	"internal/apps/nf.IPSec.Open":             "TestIPSecSealOpenRoundTrip opens what the gateway sealed",
	"internal/apps/rkv.Replica.SST":           "TestMinorCompactionAndSSTableRead reads the leader's SSTable store",
	"internal/apps/rkv.delReq":                rkvDelete,
	"internal/apps/rkv.opDel":                 rkvDelete,
	"internal/apps/rkv.skipList.Count":        "TestSkipListDrainSortedAndResets",
	"internal/bench.checked.result":           "TestParallelParity compares each checked rendering with quick_seed1.txt",
	"internal/deploy.Spec.Validate":           "TestSpecValidationTable validates every spec through the interface",
	"internal/dmo.Store.Size":                 "TestStoreMatchesMapModel",
	"internal/dmo.Store.Memset":               "TestMemset: Table 4's dmo_mmset, which no application calls",
	"internal/dmo.Store.Memcpy":               "TestMemcpyBetweenObjects: Table 4's dmo_mmcpy, which no application calls",
	"internal/dmo.Store.Memmove":              "TestMemmoveOverlap: Table 4's dmo_mmmove, which no application calls",
	"internal/fault.Injector.Fingerprint":     "TestFingerprintDeterminism",
	"internal/isolation.Mechanism":            isolationMechanism,
	"internal/isolation.FirmwareTimer":        isolationMechanism,
	"internal/isolation.OSSignals":            isolationMechanism,
	"internal/isolation.ViolationLog.Total":   "TestViolationLog",
	"internal/msgring.Message.Kind":           "TestHostToNICRoundTrip",
	"internal/msgring.Message.SrcActor":       "TestChannelMatchesModel numbers its messages with it",
	"internal/netsim.Network.setHandler":      "TestSetHandler",
	"internal/nstack.WQE.reverse":             "TestReverseEchoPath",
	"internal/pcie.Engine.InFlight":           "TestInFlightBackpressureSignal",
	"internal/sim.FreeList.Len":               "TestCallListBounded and the other pool tests bound free lists with it",
	"internal/sim.cacheLine":                  "TestPartitionRecordLayout",
	"internal/sim.Group.Run":                  "TestPartitionedMatchesSerialWindows: programs run a Group through its engines",
	"internal/sim.Station.QueueLen":           "TestStationQueueDrainsFIFOAndReleasesSlots",
	"internal/sim.Station.InService":          "TestStationQueueDrainsFIFOAndReleasesSlots",
	"internal/sim.Station.Completed":          "TestStationFIFOSingleServer",
	"internal/spec.NICModel.maxBandwidthGbps": "TestMaxBandwidthSaturatesAtLineRate",
	"internal/stats.EWMA.reset":               "TestEWMAReset",
	"internal/stats.welford":                  "TestWelfordExact",
	"internal/stats.Sample.Quantile":          "TestHistogramQuantileMatchesExact",
	"internal/stats.Sample.reset":             "TestSampleReset",
	"internal/workload.Client.Offered":        "TestQoSRejectAccounting",
}

const (
	dmoErrors = "actor.Ctx's DMO calls return these to application handlers, " +
		"which tell them apart with errors.Is"
	qosLanes           = "name the indices of the [NumLanes] counter arrays LaneSched and Runtime.LaneTotals export"
	benchFrozen        = "benchmark/ is frozen; TestBenchmarkJSONMatchesProgram holds it equal to BENCHMARK.json"
	table1             = "Table 1 description; ROADMAP item 3 decides"
	rkvDelete          = "TestDeleteReturnsNotFound deletes a key; no client sends a delete"
	isolationMechanism = "TestMechanismString: §3.4's two enforcement substrates, which no run " +
		"distinguishes"
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
// reached from the programs: the main functions of cmd/, benchmark and
// examples/, every init function, every package-level initializer, and
// the facade's exported names (TestFacadeSurface holds those to their
// users). Reached code reaches every function, method, type, field and
// constant it names; a method also when a value of its receiver type
// exists in reached code and an interface method of the same name and
// signature is called (a standard-library parameter of interface type
// counts as called, and so do String, Error and Unwrap); a field also
// through == or a map key, or when encoding/json sees its struct. A
// struct literal's key writes a field but does not use it.
//
// It fails on every declared identifier that nothing reaches (a member
// of an unreached type is covered by its type), and on every exported
// top-level identifier under internal/ that no other package's non-test
// code uses, unless it is a type the exported API of one that passes
// names. surfaceAllowed lists the exceptions; an entry that silences
// nothing fails, and so does one whose reason names a test that does
// not exist.
func TestExportedSurface(t *testing.T) {
	m := mustLoad(t)
	r := newReach(m)
	r.run()
	findings := append(r.unreached(), exportedOwnUse(m)...)
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

// TestFacadeSurface holds the root facade to what its users use. A name
// it exports passes if examples/, cmd/ or the root package's tests use
// it (the README quotes one of those tests, see
// TestReadmeQuotesExample); if its declaration is named in the
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
		if strings.HasPrefix(p.path, "examples/") || strings.HasPrefix(p.path, "cmd/") || p == m.rootTests {
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
	// the signatures of the interface methods it calls, by name.
	built    map[*types.TypeName]bool
	called   map[string][]*types.Signature
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
		called: map[string][]*types.Signature{}, jsonSeen: map[types.Type]bool{}}
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

func (r *reach) callIface(f *types.Func) {
	r.called[f.Name()] = append(r.called[f.Name()], f.Type().(*types.Signature))
}

// walk marks what one reached syntax tree uses.
func (r *reach) walk(s site) {
	info := s.p.info
	keys := map[*ast.Ident]bool{}
	ast.Inspect(s.n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if o := info.Uses[n]; o != nil && !keys[n] {
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
						keys[kv.Key.(*ast.Ident)] = true
					} else {
						r.mark(st.Field(i))
					}
				}
			}
		case *ast.CallExpr:
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

// dispatched reports whether a call through an interface can reach f.
func (r *reach) dispatched(f *types.Func) bool {
	if implicitMethods[f.Name()] {
		return true
	}
	sig := f.Type().(*types.Signature)
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	generic := ok && n.TypeParams().Len() > 0
	for _, s := range r.called[f.Name()] {
		if generic || types.Identical(sig, s) {
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
