package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"sync"
	"testing"
)

// TestCheckedRunsAreReentrant: observation is a per-run option, not
// process state, so checked runs of different experiments on concurrent
// goroutines each see exactly their own clusters and reproduce their
// solo fingerprints. (With a process-wide observer hook whichever run
// installed its observer last captured both runs' clusters.) Each
// goroutine repeats its run so the two certainly overlap; `make race`
// runs it under the race detector.
func TestCheckedRunsAreReentrant(t *testing.T) {
	ids := []string{"fig17", "faults-pdes"}
	opts := Options{Quick: true, Parallel: 2, PDESWorkers: 2}
	solos := make([]checked, len(ids))
	for i, id := range ids {
		var err error
		if solos[i], err = checkedRun(id, "solo", opts); err != nil {
			t.Fatal(err)
		}
		if solos[i].clusters == 0 || len(solos[i].violations) != 0 {
			t.Fatalf("%s: solo run checked %d clusters, violations %v", id, solos[i].clusters, solos[i].violations)
		}
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		solo := solos[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				got, err := checkedRun(id, "concurrent", opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got.clusters != solo.clusters || got.checks != solo.checks {
					t.Errorf("%s: %d clusters / %d checks beside another run, %d / %d alone",
						id, got.clusters, got.checks, solo.clusters, solo.checks)
				}
				if got.fingerprint != solo.fingerprint {
					t.Errorf("%s: fingerprint beside another run differs from the solo one", id)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEveryClusterGoesThroughObserve guards the single construction
// path: in this package's non-test files core.NewCluster and
// core.NewPartitionedCluster are called by Options.cluster alone, and a
// function that calls mesh.Build or mesh.Run takes its config from
// Options.meshConfig — so no cluster escapes Options.Observe.
func TestEveryClusterGoesThroughObserve(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	constructors := 0
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				calls := map[string]int{}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok {
								calls[x.Name+"."+sel.Sel.Name]++
							}
						}
					}
					return true
				})
				direct := calls["core.NewCluster"] + calls["core.NewPartitionedCluster"]
				if direct > 0 && !(fn.Recv != nil && fn.Name.Name == "cluster") {
					t.Errorf("%s: %s constructs a cluster directly; use opts.cluster()", name, fn.Name.Name)
				}
				constructors += direct
				if calls["mesh.Build"]+calls["mesh.Run"] > 0 && calls["opts.meshConfig"] == 0 {
					t.Errorf("%s: %s builds a mesh without opts.meshConfig", name, fn.Name.Name)
				}
			}
		}
	}
	if constructors != 1 {
		t.Errorf("%d direct cluster constructions in the package, want the one in Options.cluster", constructors)
	}
}
