// Cross-protocol equivalence tests. These live in the external test package
// so they can drive the full harness (which imports sched) against every
// lock protocol.
package sched_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/harness"
)

// equivalenceProtocols is the table every cross-protocol test iterates:
// every protocol lock.ByName accepts, the xdgl-noguard ablation included. A
// new lock protocol must be added here (see CONTRIBUTING.md).
var equivalenceProtocols = []string{"xdgl", "xdgl-noguard", "node2pl", "doclock"}

// TestCrossProtocolEquivalence runs the same seeded serial workload under
// every protocol and requires byte-identical serialized XML on every replica:
// with one client the submission order is deterministic, so any divergence
// means a protocol corrupted scheduling.
func TestCrossProtocolEquivalence(t *testing.T) {
	base := harness.Params{
		Sites: 3, Clients: 1, TxPerClient: 10, OpsPerTx: 4,
		UpdateTxPct: 70, UpdateOpPct: 50,
		BaseBytes: 24 << 10, Seed: 42,
	}
	digests := make(map[string]string)
	for _, proto := range equivalenceProtocols {
		t.Run(proto, func(t *testing.T) {
			p := base
			p.Protocol = proto
			cluster, err := harness.BuildCluster(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()
			res := harness.RunOn(context.Background(), cluster, p)
			// Serial workload: no lock conflicts, so everything commits.
			if res.Committed != res.Total {
				t.Fatalf("committed %d of %d (aborted %d, failed %d)",
					res.Committed, res.Total, res.Aborted, res.Failed)
			}
			digest, err := harness.FinalStateDigest(cluster)
			if err != nil {
				t.Fatal(err)
			}
			digests[proto] = digest
		})
	}
	want := digests[equivalenceProtocols[0]]
	for proto, digest := range digests {
		if digest == "" {
			t.Fatalf("%s: subtest did not produce a digest", proto)
		}
		if digest != want {
			t.Errorf("final state under %s diverges from %s:\n  %s\n  %s",
				proto, equivalenceProtocols[0], digest, want)
		}
	}
}

// TestCrossProtocolConvergence is the concurrent companion: with many
// clients the commit order is protocol-dependent, so final states may differ
// ACROSS protocols — but within one run every replica must still converge to
// identical XML, and the committed history must be serializable.
func TestCrossProtocolConvergence(t *testing.T) {
	for _, proto := range equivalenceProtocols {
		t.Run(proto, func(t *testing.T) {
			p := harness.Params{
				Sites: 3, Clients: 8, TxPerClient: 5, OpsPerTx: 4,
				UpdateTxPct: 60, UpdateOpPct: 50,
				BaseBytes: 24 << 10, Seed: 77,
				Protocol:             proto,
				DeadlockInterval:     5 * time.Millisecond,
				CheckSerializability: true,
			}
			res, err := harness.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}

// TestCrossProtocolConvergenceDigest repeats the concurrent run but keeps
// the cluster handle so the replica-divergence check inside FinalStateDigest
// runs against the live sites.
func TestCrossProtocolConvergenceDigest(t *testing.T) {
	for _, proto := range equivalenceProtocols {
		t.Run(proto, func(t *testing.T) {
			p := harness.Params{
				Sites: 3, Clients: 8, TxPerClient: 5, OpsPerTx: 4,
				UpdateTxPct: 60, UpdateOpPct: 50,
				BaseBytes: 24 << 10, Seed: 99,
				Protocol:         proto,
				DeadlockInterval: 5 * time.Millisecond,
			}
			cluster, err := harness.BuildCluster(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()
			res := harness.RunOn(context.Background(), cluster, p)
			if res.Committed == 0 {
				t.Fatal("nothing committed")
			}
			if _, err := harness.FinalStateDigest(cluster); err != nil {
				t.Fatalf("replicas diverged under %s: %v", proto, err)
			}
		})
	}
}
