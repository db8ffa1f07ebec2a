package deploy

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/apps/rkv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// specNodes builds a classic cluster with n offload-capable nodes.
func specNodes(seed uint64, n int) (*core.Cluster, []*core.Node) {
	cl := core.NewCluster(seed)
	var nodes []*core.Node
	for i := 0; i < n; i++ {
		nodes = append(nodes, cl.AddNode(core.Config{
			Name: fmt.Sprintf("n%d", i), NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10,
		}))
	}
	return cl, nodes
}

// TestSpecValidationTable walks the unified Spec surface: every concrete
// spec validates generically through the interface, structural errors
// and Tenancy errors come back as typed *validationError naming the
// spec and field (wrapping qos's typed error where qos raised it), and
// nothing panics on garbage input.
func TestSpecValidationTable(t *testing.T) {
	_, nodes := specNodes(1, 3)
	badTenancy := &qos.Tenancy{Tenants: []qos.Tenant{{Name: "t"}}} // RatePerSec 0
	key := make([]byte, 32)

	cases := []struct {
		name     string
		s        Spec
		spec     string // expected validationError.Spec ("" = valid)
		field    string // expected validationError.Field
		qosField string // expected field of the wrapped qos error ("" = none)
	}{
		{"rkv valid", RKVSpec{Nodes: nodes, BaseID: 100, MemLimit: 8 << 20}, "", "", ""},
		{"rkv no nodes", RKVSpec{BaseID: 100}, "RKVSpec", "Nodes", ""},
		{"rkv too many replicas", RKVSpec{Nodes: nodes, Replicas: 5}, "RKVSpec", "Replicas", ""},
		{"rkv negative shards", RKVSpec{Nodes: nodes, Shards: -1}, "RKVSpec", "Shards", ""},
		{"rkv bad tenancy", RKVSpec{Common: Common{Tenancy: badTenancy}, Nodes: nodes},
			"RKVSpec", "Tenancy", "Tenants[0].RatePerSec"},
		{"dt valid", DTSpec{Coordinator: nodes[0], Participants: nodes[1:], BaseID: 200}, "", "", ""},
		{"dt no coordinator", DTSpec{Participants: nodes[1:]}, "DTSpec", "Coordinator", ""},
		{"dt no participants", DTSpec{Coordinator: nodes[0]}, "DTSpec", "Participants", ""},
		{"dt bad tenancy", DTSpec{Common: Common{Tenancy: &qos.Tenancy{
			Controller: qos.ControllerConfig{Enabled: true},
		}}, Coordinator: nodes[0], Participants: nodes[1:]},
			"DTSpec", "Tenancy", "Controller.Enabled"},
		{"rta valid", RTASpec{Node: nodes[0], Aggregator: nodes[1], BaseID: 300, TopN: 4}, "", "", ""},
		{"rta no nodes", RTASpec{TopN: 4}, "RTASpec", "Node", ""},
		{"rta bad tenancy", RTASpec{Common: Common{Tenancy: &qos.Tenancy{
			Lanes: qos.LaneConfig{DataCap: -1},
		}}, Node: nodes[0], Aggregator: nodes[1]},
			"RTASpec", "Tenancy", "Lanes.DataCap"},
		{"firewall valid", FirewallSpec{Node: nodes[0], ID: 400}, "", "", ""},
		{"firewall no node", FirewallSpec{ID: 400}, "FirewallSpec", "Node", ""},
		{"firewall bad tenancy", FirewallSpec{Common: Common{Tenancy: &qos.Tenancy{
			Controller: qos.ControllerConfig{Alpha: 2},
		}}, Node: nodes[0]}, "FirewallSpec", "Tenancy", "Controller.Alpha"},
		{"ipsec valid", IPSecSpec{Node: nodes[0], ID: 500, Key: key}, "", "", ""},
		{"ipsec no node", IPSecSpec{ID: 500, Key: key}, "IPSecSpec", "Node", ""},
		{"ipsec short key", IPSecSpec{Node: nodes[0], ID: 500, Key: key[:5]}, "IPSecSpec", "Key", ""},
		{"ipsec bad tenancy", IPSecSpec{Common: Common{Tenancy: badTenancy},
			Node: nodes[0], ID: 500, Key: key}, "IPSecSpec", "Tenancy", "Tenants[0].RatePerSec"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if tc.spec == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var ve *validationError
			if !errors.As(err, &ve) {
				t.Fatalf("Validate() = %v (%T), want *validationError", err, err)
			}
			if ve.Spec != tc.spec || ve.Field != tc.field {
				t.Fatalf("validationError = %s.%s, want %s.%s", ve.Spec, ve.Field, tc.spec, tc.field)
			}
			if tc.qosField != "" {
				inner := errors.Unwrap(ve)
				if inner == nil || !strings.Contains(inner.Error(), "Tenancy."+tc.qosField+":") {
					t.Fatalf("error chain %v does not wrap qos's error on %s", err, tc.qosField)
				}
			}
		})
	}
}

// TestSpecDeployAppSurface deploys every application kind through the
// generic Spec/App interfaces in one cluster: names are the shared
// vocabulary, and QoSRuntime is nil exactly when the spec had no
// Tenancy block.
func TestSpecDeployAppSurface(t *testing.T) {
	_, nodes := specNodes(1, 6)
	tenancy := &qos.Tenancy{Tenants: []qos.Tenant{{Name: "a", RatePerSec: 1e6}}}
	specs := []struct {
		s       Spec
		name    string
		wantQoS bool
	}{
		{RKVSpec{Common: Common{Placement: NIC, Tenancy: tenancy},
			Nodes: nodes[:3], BaseID: 100, MemLimit: 8 << 20}, "rkv", true},
		{DTSpec{Coordinator: nodes[3], Participants: nodes[4:], BaseID: 300}, "dt", false},
		{RTASpec{Common: Common{Placement: NIC}, Node: nodes[4], Aggregator: nodes[5],
			BaseID: 400, TopN: 4}, "rta", false},
		{FirewallSpec{Common: Common{Placement: NIC, Tenancy: tenancy},
			Node: nodes[5], ID: 500}, "firewall", true},
		{IPSecSpec{Node: nodes[3], ID: 600, Key: make([]byte, 32)}, "ipsec", false},
	}
	for _, tc := range specs {
		app, err := tc.s.DeployApp()
		if err != nil {
			t.Fatalf("%s: DeployApp: %v", tc.name, err)
		}
		var name string
		var rt *qos.Runtime
		var inj *fault.Injector
		switch a := app.(type) {
		case *RKV:
			name, rt, inj = "rkv", a.QoS, a.Injector
		case *DT:
			name, rt, inj = "dt", a.QoS, a.Injector
		case *RTA:
			name, rt, inj = "rta", a.QoS, a.Injector
		case *Firewall:
			name, rt, inj = "firewall", a.QoS, a.Injector
		case *IPSec:
			name, rt, inj = "ipsec", a.QoS, a.Injector
		}
		if name != tc.name {
			t.Errorf("%s: DeployApp returned %T", tc.name, app)
		}
		if got := rt != nil; got != tc.wantQoS {
			t.Errorf("%s: QoS != nil is %v, want %v", tc.name, got, tc.wantQoS)
		}
		if inj != nil {
			t.Errorf("%s: Injector non-nil without a schedule", tc.name)
		}
	}
}

// TestSpecTenancyControllerRequiresClassicCluster pins the PDES
// restriction at deploy time: a partitioned cluster rejects an
// SLO-controller Tenancy with qos's typed error instead of
// deploying a racy loop.
func TestSpecTenancyControllerRequiresClassicCluster(t *testing.T) {
	cl := core.NewPartitionedCluster(1, 2)
	n := cl.AddNode(core.Config{Name: "n0", NIC: spec.LiquidIOII_CN2350(), LinkGbps: 10,
		DisableMigration: true})
	_, err := FirewallSpec{
		Common: Common{Placement: NIC, Tenancy: &qos.Tenancy{
			Tenants:    []qos.Tenant{{Name: "a", RatePerSec: 1e6}},
			Controller: qos.ControllerConfig{Enabled: true},
		}},
		Node: n, ID: 100,
	}.Deploy()
	if err == nil || !strings.Contains(err.Error(), "qos: invalid Tenancy.Controller.Enabled:") {
		t.Fatalf("partitioned deploy with controller: err = %v, want qos's error on Controller.Enabled", err)
	}
}

// TestDefaultCommonMatchesPreQoSFingerprint is the legacy-parity gate
// for the spec-API v2 + QoS PR: a deployment with the zero Common block
// (no Tenancy) must reproduce the pre-QoS runtime byte-for-byte — same
// response log, same invariant fingerprint — as the plain apps-layer
// deployment with no QoS code anywhere near the message path.
func TestDefaultCommonMatchesPreQoSFingerprint(t *testing.T) {
	run := func(useSpec bool) (string, string) {
		cl, nodes := specNodes(11, 3)
		chk := cl.AttachCheckers()[0]
		var dep *rkv.Deployment
		if useSpec {
			d, err := RKVSpec{Nodes: nodes, BaseID: 100, MemLimit: 8 << 20}.Deploy()
			if err != nil {
				t.Fatal(err)
			}
			if d.QoS != nil {
				t.Fatal("zero Common installed a QoS runtime")
			}
			dep = d.Deployment
		} else {
			d, err := rkv.Deploy(nodes, 100, 8<<20, false)
			if err != nil {
				t.Fatal(err)
			}
			dep = d
		}
		client := workload.NewClient(cl, "cli", 10)
		var log []string
		for i := 0; i < 64; i++ {
			i := uint64(i)
			cl.Eng.At(sim.Time(i)*15*sim.Microsecond, func() {
				k := []byte(fmt.Sprintf("k%d", i%16))
				data := rkv.PutReq(k, []byte{byte(i)})
				if i%4 == 0 {
					data = rkv.GetReq(k)
				}
				client.Send(workload.Request{
					Node: dep.Replicas[0].Node.Name, Dst: dep.LeaderActor(),
					Kind: rkv.KindReq, Data: data, Size: 256, FlowID: i,
					OnResp: func(m actor.Msg) {
						log = append(log, fmt.Sprintf("%d:%v@%v", i, rkv.StatusOf(m.Data), cl.Eng.Now()))
					},
				})
			})
		}
		cl.Eng.Run()
		return strings.Join(log, "\n"), chk.Fingerprint()
	}

	specLog, specFP := run(true)
	legacyLog, legacyFP := run(false)
	if specLog != legacyLog {
		t.Errorf("response log diverged:\nspec:\n%s\nlegacy:\n%s", specLog, legacyLog)
	}
	if specFP != legacyFP {
		t.Errorf("invariant fingerprint diverged:\nspec:   %s\nlegacy: %s", specFP, legacyFP)
	}
}
