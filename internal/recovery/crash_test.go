package recovery

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

const crashDocXML = `<people>
  <person><id>4</id><name>Ana</name></person>
  <person><id>7</id><name>Bruno</name></person>
</people>`

// cluster is a rebuildable test deployment: sites share one catalog and
// in-process network, and each site's FileStore + journal live under dir so
// a killed site can be reconstructed over the same state.
type cluster struct {
	t         *testing.T
	dir       string
	net       *transport.Network
	catalog   *replica.Catalog
	ids       []int
	sites     []*sched.Site
	hooks     []*sched.CrashHooks
	indexKeys []string // value-index keys every (re)built site enables
}

func newCrashCluster(t *testing.T, n int) *cluster {
	return newCrashClusterIndexed(t, n, nil)
}

// newCrashClusterIndexed is newCrashCluster with value indexes enabled at
// every site, so restarts also exercise index reconstruction.
func newCrashClusterIndexed(t *testing.T, n int, indexKeys []string) *cluster {
	t.Helper()
	c := &cluster{
		t:         t,
		dir:       t.TempDir(),
		net:       transport.NewNetwork(),
		catalog:   replica.NewCatalog(),
		ids:       make([]int, n),
		sites:     make([]*sched.Site, n),
		hooks:     make([]*sched.CrashHooks, n),
		indexKeys: indexKeys,
	}
	for i := range c.ids {
		c.ids[i] = i
		c.hooks[i] = &sched.CrashHooks{}
	}
	for i := 0; i < n; i++ {
		c.sites[i] = c.buildSite(i, false)
		doc, err := xmltree.ParseString("d1", crashDocXML)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.sites[i].AddDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range c.sites {
			s.Stop()
		}
	})
	return c
}

// buildSite constructs (or reconstructs) one site over its on-disk state.
func (c *cluster) buildSite(i int, recovering bool) *sched.Site {
	c.t.Helper()
	dir := filepath.Join(c.dir, fmt.Sprintf("site%d", i))
	st, err := store.NewFileStore(dir)
	if err != nil {
		c.t.Fatal(err)
	}
	journal, err := store.OpenJournal(filepath.Join(dir, "commit.log"))
	if err != nil {
		c.t.Fatal(err)
	}
	s := sched.New(sched.Config{
		SiteID:            i,
		Sites:             c.ids,
		Catalog:           c.catalog,
		Store:             st,
		Journal:           journal,
		RetryInterval:     5 * time.Millisecond,
		PersistDelay:      -1, // flush without a batching window
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMisses:   2,
		IndexedKeys:       c.indexKeys,
		Recovering:        recovering,
		Hooks:             c.hooks[i],
	})
	if err := s.AttachNetwork(c.net); err != nil {
		c.t.Fatal(err)
	}
	return s
}

// restart rebuilds a killed site through the recovery subsystem.
func (c *cluster) restart(i int) *Report {
	c.t.Helper()
	c.sites[i].Quiesce()             // no dead-incarnation Save may land over catch-up
	c.hooks[i] = &sched.CrashHooks{} // the crash already happened
	s := c.buildSite(i, true)
	c.sites[i] = s
	report, err := Restart(s, Options{CatchUp: true, Timeout: time.Second})
	if err != nil {
		c.t.Fatalf("restart site %d: %v", i, err)
	}
	return report
}

func changeNameOp() txn.Operation {
	return txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Change, Target: "//person[id='4']/name", Value: "Zed",
	})
}

// eventually polls until the condition holds.
func eventually(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestCrashPoints is the fault-injection table: a participant or the
// coordinator is killed at each 2PC stage boundary, the survivors keep
// serving reads from the surviving replicas, the victim restarts through
// internal/recovery, every in-doubt transaction is resolved, and all
// replicas converge to identical document XML.
func TestCrashPoints(t *testing.T) {
	cases := []struct {
		name   string
		sites  int
		victim int // site killed by the hook
		// arm installs the kill hook on the cluster before the doomed
		// transaction runs; fired signals the kill.
		arm func(c *cluster, fired chan<- struct{})
	}{
		{
			// The participant dies as the consolidation request arrives,
			// before its intent record: nobody can have its state, the
			// transaction resolves away and every replica converges to the
			// pre-transaction document.
			name: "participant-before-intent", sites: 2, victim: 1,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[1].BeforeIntent = func(txn.ID, []string) {
					once.Do(func() { c.sites[1].Kill(); close(fired) })
				}
			},
		},
		{
			// The participant dies after its intent is durable but before
			// the covering write: the coordinator commits, the victim
			// restarts with an in-doubt record that resolves to commit and
			// catches the document up from the survivors.
			name: "participant-after-intent", sites: 3, victim: 1,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[1].AfterIntent = func(txn.ID, []string) {
					once.Do(func() { c.sites[1].Kill(); close(fired) })
				}
			},
		},
		{
			// The participant dies mid-persist: commit acknowledged, intent
			// durable, Store write abandoned.
			name: "participant-mid-persist", sites: 3, victim: 1,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[1].BeforeSave = func(string) {
					once.Do(func() { c.sites[1].Kill(); close(fired) })
				}
			},
		},
		{
			// The coordinator dies before logging its decision: presumed
			// abort everywhere — the survivors' failure detector aborts the
			// orphaned participant state and the cluster converges to the
			// pre-transaction document.
			name: "coordinator-before-decision", sites: 3, victim: 0,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[0].BeforeDecision = func(txn.ID) {
					once.Do(func() { c.sites[0].Kill(); close(fired) })
				}
			},
		},
		{
			// The coordinator dies right after its decision record, before
			// any participant hears of it: the survivors presume abort; the
			// restarted coordinator finds its dangling decision, learns no
			// participant consolidated, and voids it.
			name: "coordinator-after-decision", sites: 3, victim: 0,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[0].AfterDecision = func(txn.ID) {
					once.Do(func() { c.sites[0].Kill(); close(fired) })
				}
			},
		},
		{
			// The coordinator dies mid commit fan-out, after a participant
			// consolidated: the commit must survive — the restarted
			// coordinator reconciles its dangling decision against the
			// participants and catches up to the committed state.
			name: "coordinator-mid-fanout", sites: 3, victim: 0,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[1].AfterIntent = func(txn.ID, []string) {
					once.Do(func() { c.sites[0].Kill(); close(fired) })
				}
			},
		},
		{
			// The coordinator dies while persisting its own replica after
			// the participants consolidated: in-doubt at the coordinator,
			// resolved commit from its own decision record.
			name: "coordinator-mid-persist", sites: 3, victim: 0,
			arm: func(c *cluster, fired chan<- struct{}) {
				var once sync.Once
				c.hooks[0].BeforeSave = func(string) {
					once.Do(func() { c.sites[0].Kill(); close(fired) })
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCrashCluster(t, tc.sites)
			fired := make(chan struct{})
			tc.arm(c, fired)

			// The doomed transaction. Its outcome depends on the crash
			// point (committed, aborted or failed) — what the table asserts
			// is convergence, not the label.
			_, _ = c.sites[0].Submit([]txn.Operation{changeNameOp()})
			select {
			case <-fired:
			case <-time.After(5 * time.Second):
				t.Fatal("kill hook never fired")
			}

			// Reads on the document keep succeeding from the surviving
			// replicas while the victim is down (orphaned locks are
			// resolved by failure detection first).
			survivor := (tc.victim + 1) % tc.sites
			eventually(t, 5*time.Second, "reads from survivors", func() bool {
				res, err := c.sites[survivor].Submit([]txn.Operation{
					txn.NewQuery("d1", "//person/name"),
				})
				return err == nil && res.State == txn.Committed
			})

			// Restart the victim through the recovery subsystem.
			report := c.restart(tc.victim)
			if inDoubt := c.sites[tc.victim].Journal().InDoubt(); len(inDoubt) != 0 {
				t.Fatalf("in-doubt transactions survived recovery: %+v (report: %s)", inDoubt, report)
			}

			// All replicas hold identical XML.
			want, err := c.sites[0].Document("d1")
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < tc.sites; i++ {
				got, err := c.sites[i].Document("d1")
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Fatalf("site %d diverged after recovery (report: %s)\nsite 0: %s\nsite %d: %s",
						i, report, want.String(), i, got.String())
				}
			}

			// The restarted site is readmitted: once the survivors'
			// heartbeats mark it Up again, writes (which need every
			// replica) succeed.
			eventually(t, 5*time.Second, "writes after readmission", func() bool {
				res, err := c.sites[survivor].Submit([]txn.Operation{
					txn.NewUpdate("d1", &xupdate.Update{
						Kind: xupdate.Change, Target: "//person[id='7']/name", Value: "Carla",
					}),
				})
				return err == nil && res.State == txn.Committed
			})
		})
	}
}

// TestWritesFailFastWhileReplicaDown: a write that would touch a dead
// replica fails with the typed ErrReplicaUnavailable instead of hanging.
func TestWritesFailFastWhileReplicaDown(t *testing.T) {
	c := newCrashCluster(t, 3)
	c.sites[2].Kill()
	eventually(t, 5*time.Second, "replica-unavailable write", func() bool {
		res, err := c.sites[0].Submit([]txn.Operation{changeNameOp()})
		if err != nil {
			t.Fatal(err)
		}
		return errors.Is(res.Err, txn.ErrReplicaUnavailable)
	})
	// Reads still flow.
	res, err := c.sites[0].Submit([]txn.Operation{txn.NewQuery("d1", "//person/name")})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("read while replica down: %v %+v", err, res)
	}
}

// TestRestartSeqFence: a restarted site's new transactions cannot collide
// with identifiers from before the crash.
func TestRestartSeqFence(t *testing.T) {
	c := newCrashCluster(t, 2)
	res, err := c.sites[0].Submit([]txn.Operation{changeNameOp()})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("seed txn: %v %+v", err, res)
	}
	c.sites[0].Sync()
	preCrash := res.Txn
	c.sites[0].Kill()
	report := c.restart(0)
	if report.SeqFloor <= preCrash.Seq {
		t.Fatalf("seq floor %d does not fence past pre-crash id %s", report.SeqFloor, preCrash)
	}
	res2, err := c.sites[0].Submit([]txn.Operation{txn.NewQuery("d1", "//person/name")})
	if err != nil || res2.State != txn.Committed {
		t.Fatalf("post-restart txn: %v %+v", err, res2)
	}
	if res2.Txn.Seq <= preCrash.Seq {
		t.Fatalf("post-restart id %s not past pre-crash %s", res2.Txn, preCrash)
	}
}

// TestResolveOnline: a healthy site's online recovery pass (dtxctl
// -recover) drains the pipeline and reports nothing in doubt.
func TestResolveOnline(t *testing.T) {
	c := newCrashCluster(t, 2)
	if _, err := c.sites[0].Submit([]txn.Operation{changeNameOp()}); err != nil {
		t.Fatal(err)
	}
	report, err := Resolve(c.sites[0], Options{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Resolutions) != 0 || len(report.Decisions) != 0 {
		t.Fatalf("healthy site reported recovery work: %s", report)
	}
}

// TestSingleReplicaIntentStaysOpen: with no live replica to catch up from,
// a committed in-doubt transaction must NOT be sealed durable — the intent
// stays open as the record of the (possibly lost) covering write, while the
// site still comes back serving.
func TestSingleReplicaIntentStaysOpen(t *testing.T) {
	c := newCrashCluster(t, 1)
	fired := make(chan struct{})
	var once sync.Once
	c.hooks[0].BeforeSave = func(string) {
		once.Do(func() { c.sites[0].Kill(); close(fired) })
	}
	_, _ = c.sites[0].Submit([]txn.Operation{changeNameOp()})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("kill hook never fired")
	}

	report := c.restart(0)
	if len(report.Resolutions) != 1 || report.Resolutions[0].Outcome != Committed {
		t.Fatalf("resolutions = %+v", report.Resolutions)
	}
	inDoubt := c.sites[0].Journal().InDoubt()
	if len(inDoubt) != 1 {
		t.Fatalf("unrecoverable intent was sealed: inDoubt=%v (report %s)", inDoubt, report)
	}
	// The site serves regardless; the open intent is the operator's signal.
	res, err := c.sites[0].Submit([]txn.Operation{txn.NewQuery("d1", "//person/name")})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("restarted single-replica site not serving: %v %+v", err, res)
	}
}
