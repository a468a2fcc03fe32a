package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"time"

	dtx "repro"
	"repro/internal/obs"
)

// runTraced is the per-layer run. One cluster runs the timed phase untraced,
// for the counter ratios, the runtime costs and the per-kind latencies; a
// second cluster runs it again with every registry armed and every
// transaction traced, for the phase histograms and the span timelines. The
// layer probes run last, on the traced cluster's end-of-run documents. Each
// phase lasts half the run length, so a traced run takes about as long as an
// untraced one.
func runTraced(wl *workload, o options, w io.Writer) (*report, error) {
	o.seconds /= 2
	e, err := setup(wl, o, false)
	if err != nil {
		return nil, err
	}
	ph := timedPhase(e, o, nil)
	chain := mvccChainLength(e)
	gateErr := gate(e, ph)
	e.close()
	summarize(w, ph)

	et, err := setup(wl, o, true)
	if err != nil {
		return nil, err
	}
	defer et.close()
	for site := 0; site < et.c.Sites(); site++ {
		reg, err := et.c.Metrics(site)
		if err != nil {
			return nil, err
		}
		reg.Arm()
	}
	et.traceSink.take() // drop the set-up's traces
	tr := newTracer()
	pt := timedPhase(et, o, tr)
	et.c.Sync()
	var recs []*txnRecord
	for _, r := range pt.results {
		recs = append(recs, r.txns...)
	}
	lines := et.traceSink.take()
	matched, err := join(recs, lines)
	if err != nil {
		return nil, err
	}
	spansPath := filepath.Join(o.out, "spans-"+wl.name+".jsonl")
	if err := writeSpans(spansPath, recs); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "traced: %d transactions, %d scheduler traces joined, spans in %s\n", len(recs), matched, spansPath)
	if tracedGate := gate(et, pt); gateErr == nil {
		gateErr = tracedGate
	}

	m := layerMetrics(ph, pt, recs, et.c, chain)
	probe, err := probes(wl, et, pt)
	if err != nil {
		return nil, err
	}
	for k, v := range probe {
		m[k] = v
	}
	if gateErr != nil {
		fmt.Fprintln(w, "correctness gate FAILED:", gateErr)
	}
	return &report{
		Correct:   gateErr == nil,
		Attempted: ph.logicalTxns() + pt.logicalTxns(),
		Failed:    ph.failedTxns() + pt.failedTxns(),
		Metrics:   m,
	}, nil
}

// layerMetrics derives the per-layer metrics: counters and runtime costs
// from the untraced phase ph, histograms and spans from the traced phase pt.
func layerMetrics(ph, pt *phase, recs []*txnRecord, c *dtx.Cluster, chain float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	commits := float64(ph.committedTxns())
	writes := float64(ph.committedOf(kindWrite))
	logical := float64(ph.logicalTxns())
	secs := ph.elapsed.Seconds()
	aborts := ph.aborts()
	st := ph.stats

	// dtx: latency per transaction kind (untraced) and per API call (spans).
	for k := kind(0); k < numKinds; k++ {
		lat := ph.all(k)
		put("dtx."+k.String()+"_tps", float64(ph.committedOf(k))/secs, "1/s")
		put("dtx."+k.String()+"_p50_ms", quantile(lat, 0.5), "ms")
		put("dtx."+k.String()+"_p99_ms", p99(lat), "ms")
	}
	calls := spanDurations(recs)
	put("dtx.begin_us", quantile(calls["dtx.begin"], 0.5)*1000, "us")
	put("dtx.read_step_ms", quantile(calls["dtx.query"], 0.5), "ms")
	put("dtx.write_step_ms_p50", quantile(calls["dtx.update"], 0.5), "ms")
	put("dtx.write_step_ms_p99", p99(calls["dtx.update"]), "ms")
	put("dtx.commit_ms_p50", quantile(calls["dtx.commit"], 0.5), "ms")
	put("dtx.commit_ms_p99", p99(calls["dtx.commit"]), "ms")

	// sched: 2PC, persist, replication and detector histograms (traced).
	h := func(name string) []*obs.Histogram { return histograms(c, name) }
	hq := func(name string, q float64) float64 { return histQuantileMs(h(name), q) }
	put("sched.op_exec_p50_ms", hq("dtx_op_exec_seconds", 0.5), "ms")
	put("sched.op_exec_p99_ms", hq("dtx_op_exec_seconds", 0.99), "ms")
	put("sched.commit_fanout_p50_ms", hq("dtx_2pc_commit_fanout_seconds", 0.5), "ms")
	put("sched.commit_fanout_p99_ms", hq("dtx_2pc_commit_fanout_seconds", 0.99), "ms")
	put("sched.quorum_ack_p50_ms", hq("dtx_2pc_quorum_ack_seconds", 0.5), "ms")
	put("sched.quorum_ack_p99_ms", hq("dtx_2pc_quorum_ack_seconds", 0.99), "ms")
	put("sched.decision_write_p50_ms", hq("dtx_2pc_decision_write_seconds", 0.5), "ms")
	put("sched.persist_save_p50_ms", hq("dtx_persist_save_seconds", 0.5), "ms")
	put("sched.persist_saves_per_commit", ratio(float64(histCount(h("dtx_persist_save_seconds"))), float64(pt.committedOf(kindWrite))), "count")
	put("sched.remote_ops_per_txn", ratio(float64(st.RemoteOpsSent), commits), "count")
	put("sched.repl_ship_p50_ms", hq("dtx_repl_ship_seconds", 0.5), "ms")
	put("sched.repl_apply_p50_ms", hq("dtx_repl_apply_seconds", 0.5), "ms")
	put("sched.repl_records_per_write", ratio(float64(st.LogRecordsShipped), writes), "count")
	put("sched.repl_stale_refusals", float64(st.ReplStaleRefusals), "count")
	put("sched.deadlock_sweep_p50_ms", hq("dtx_deadlock_cycle_seconds", 0.5), "ms")
	put("sched.indexed_per_read", ratio(float64(st.IndexedQueries), float64(ph.queries())), "ratio")

	// lock: footprint, conflicts, waits and wasted work.
	put("lock.acquired_per_txn", ratio(float64(st.LocksAcquired), commits), "count")
	put("lock.conflicts_per_ktxn", ratio(1000*float64(st.OpConflicts), logical), "count")
	put("lock.waits_per_ktxn", ratio(1000*float64(histCount(h("dtx_lock_wait_seconds"))), float64(pt.logicalTxns())), "count")
	put("lock.wait_p50_ms", hq("dtx_lock_wait_seconds", 0.5), "ms")
	put("lock.wait_p99_ms", hq("dtx_lock_wait_seconds", 0.99), "ms")
	put("lock.deadlock_aborts_per_ktxn", ratio(1000*float64(aborts["ErrDeadlock"]), logical), "count")
	put("lock.commit_ratio", ratio(commits, float64(ph.attempts())), "ratio")

	// mvcc: version materialisation and snapshot reads.
	put("mvcc.publishes_per_write", ratio(float64(st.SnapshotPublishes), writes), "count")
	put("mvcc.snapshot_reads_per_txn", ratio(float64(st.SnapshotReads), commits), "count")
	put("mvcc.chain_length", chain, "count")
	put("mvcc.unavailable_per_ktxn", ratio(1000*float64(aborts["ErrSnapshotUnavailable"]), logical), "count")

	// runtime: allocation, GC and CPU over the untraced timed phase.
	rt := ph.rt
	put("runtime.alloc_kb_per_commit", ratio(rt.allocBytes/1024, commits), "KB")
	put("runtime.gc_per_ktxn", ratio(1000*rt.gcCycles, commits), "count")
	put("runtime.gc_cpu_pct", ratio(100*rt.gcCPU, rt.cpu), "%")
	put("runtime.cpu_ms_per_commit", ratio(1000*rt.cpu, commits), "ms")

	// Self time per layer over the traced timelines, and the cost of tracing.
	self := selfTimes(recs)
	tcommits := float64(pt.committedTxns())
	for _, layer := range []string{"bench", "dtx", "sched", "lock"} {
		put("self."+layer+"_ms_per_txn", ratio(float64(self[layer])/float64(time.Millisecond), tcommits), "ms")
	}
	untraced := commits / secs
	traced := tcommits / pt.elapsed.Seconds()
	put("trace.untraced_tps", untraced, "1/s")
	put("trace.traced_tps", traced, "1/s")
	put("trace.overhead_pct", 100*(1-ratio(traced, untraced)), "%")
	return m
}

// spanDurations groups the benchmark's API-call spans by name, in ms, sorted.
func spanDurations(recs []*txnRecord) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		for _, s := range r.spans {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	for _, v := range out {
		sort.Float64s(v)
	}
	return out
}

// histograms returns every site's histograms of one family, all children of
// a labelled family included. Registry lookups are get-or-create by name, so
// a family a site never registered comes back empty.
func histograms(c *dtx.Cluster, name string) []*obs.Histogram {
	var out []*obs.Histogram
	for site := 0; site < c.Sites(); site++ {
		reg, err := c.Metrics(site)
		if err != nil {
			continue
		}
		switch name {
		case "dtx_2pc_decision_write_seconds", "dtx_2pc_commit_fanout_seconds", "dtx_2pc_quorum_ack_seconds", "dtx_deadlock_cycle_seconds":
			out = append(out, reg.Histogram(name, "", obs.LatencyBuckets))
		case "dtx_repl_ship_seconds":
			out = append(out, reg.HistogramVec(name, "", "peer", obs.LatencyBuckets).Children()...)
		default:
			out = append(out, reg.HistogramVec(name, "", "doc", obs.LatencyBuckets).Children()...)
		}
	}
	return out
}

func histCount(hs []*obs.Histogram) int64 {
	var n int64
	for _, h := range hs {
		n += h.Count()
	}
	return n
}

// histQuantileMs reads a merged quantile in ms; 0 when the histograms hold
// no samples, or for a p99 with fewer than ten samples beyond it.
func histQuantileMs(hs []*obs.Histogram, q float64) float64 {
	n := histCount(hs)
	if n == 0 || (q > 0.5 && float64(n)*(1-q) < 10) {
		return 0
	}
	v := obs.Quantile(q, hs...)
	if math.IsNaN(v) {
		return 0
	}
	return v * 1000
}

// mvccChainLength is the mean retained MVCC chain length over every replica
// of every document.
func mvccChainLength(e *env) float64 {
	var total, n float64
	for site := 0; site < e.c.Sites(); site++ {
		reg, err := e.c.Metrics(site)
		if err != nil {
			continue
		}
		total += sumGauge(reg.Text(), "dtx_mvcc_chain_length")
	}
	for _, d := range e.docs {
		n += float64(len(e.c.SitesOf(d.name)))
	}
	return ratio(total, n)
}
