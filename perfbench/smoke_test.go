package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	dtx "repro"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func smokeOptions(t *testing.T, name string, traced bool) options {
	return options{workload: name, seed: 7, seconds: 0.3, trace: traced, out: t.TempDir(), docKB: 24, rounds: 2, minTxns: 50}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, with the correctness gate on, and checks that each run reports
// exactly the metrics BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			label := name + "/untraced"
			if traced {
				want, label = perLayer, name+"/traced"
			}
			t.Run(label, func(t *testing.T) {
				var out strings.Builder
				rep, err := run(smokeOptions(t, name, traced), &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := rep.Metrics[m]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 && !strings.HasPrefix(m, "trace."):
						t.Errorf("metric %s = %v", m, v.Value)
					case !traced && v.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m)
					}
				}
			})
		}
	}
}

// TestGateCatchesLostWrite overwrites a value a quorum-mix client committed
// last: the read-back check of the gate must fail.
func TestGateCatchesLostWrite(t *testing.T) {
	o := smokeOptions(t, "quorum-mix", false)
	e, err := setup(workloads[o.workload], o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ph := timedPhase(e, o, nil)
	if err := gate(e, ph); err != nil {
		t.Fatalf("gate failed on an untouched run: %v", err)
	}
	c := ph.clients[0].(*quorumClient)
	if len(c.last) == 0 {
		t.Fatal("client 0 committed no change")
	}
	for key := range c.last {
		name, path, _ := strings.Cut(key, "\x00")
		if _, err := e.c.Submit(0, dtx.Change(name, path, "lost")); err != nil {
			t.Fatal(err)
		}
		break
	}
	if err := gate(e, ph); err == nil {
		t.Fatal("gate passed although a client's last committed write was overwritten")
	}
}

// TestGateCatchesReadScanChange: with no writer, any change to a document
// must fail the gate.
func TestGateCatchesReadScanChange(t *testing.T) {
	o := smokeOptions(t, "read-scan", false)
	e, err := setup(workloads[o.workload], o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ph := timedPhase(e, o, nil)
	if _, err := e.c.Submit(0, dtx.Change(e.docs[0].name, "/site/people/person[1]/name", "changed")); err != nil {
		t.Fatal(err)
	}
	if err := gate(e, ph); err == nil {
		t.Fatal("gate passed although a document changed without a writer")
	}
}

// TestSelfTimeCoversParents checks the span arithmetic: self times of a
// nested timeline add up to the root's duration.
func TestSelfTimeCoversParents(t *testing.T) {
	rec := &txnRecord{spans: []span{
		{Name: "txn.write", Parent: -1, Start: 0, End: 100},
		{Name: "dtx.update", Parent: 0, Start: 10, End: 60},
		{Name: "sched.exec", Parent: 1, Start: 20, End: 50},
		{Name: "lock.wait", Parent: 2, Start: 25, End: 35},
		{Name: "dtx.commit", Parent: 0, Start: 55, End: 90}, // overlaps its sibling by 5
	}}
	self := selfTimes([]*txnRecord{rec})
	want := map[string]int64{"bench": 100 - 80, "dtx": (50 - 30) + 35, "sched": 30 - 10, "lock": 10}
	var total int64
	for layer, v := range want {
		if int64(self[layer]) != v {
			t.Errorf("self[%s] = %d, want %d", layer, self[layer], v)
		}
		total += int64(self[layer])
	}
	if total != 100+5 {
		t.Errorf("self times sum to %d", total)
	}
}
