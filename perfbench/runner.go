package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	dtx "repro"
)

// maxAttempts bounds the resubmissions of one logical transaction. Deadlock
// victims and snapshot-too-old readers are resubmitted after a jittered
// backoff, like SubmitWithRetry: resubmitted at once, two clients re-running
// the same conflicting pair can deadlock again in lockstep. The pause is
// drawn from [0, retryPause << min(attempt-1, 5)) and counts against the
// transaction's latency.
const (
	maxAttempts = 100
	retryPause  = 100 * time.Microsecond
)

// sampleSteps is how many steps per client a traced run keeps as the
// inputs of the layer probes.
const sampleSteps = 512

// clientResult is what one client goroutine measured.
type clientResult struct {
	outcomes      []outcome
	committed     [numKinds]int
	failed        int
	attempts      int
	queries       int // query steps executed, over all attempts
	aborts        map[string]int
	mismatches    int
	firstMismatch string
	firstFailure  string
	txns          []*txnRecord // traced runs only
	sample        []step       // traced runs only: the first steps run, inputs of the layer probes
}

// outcome is one finished logical transaction.
type outcome struct {
	kind      kind
	end       time.Duration // since the phase began
	ms        float64       // from the first Begin to the final outcome
	committed bool
}

// phase is one timed closed loop over all clients.
type phase struct {
	elapsed time.Duration
	clients []client
	results []*clientResult
	stats   dtx.Stats // TotalStats delta over the phase
	rt      runtimeDelta
}

// timedPhase runs every client in a closed loop with zero think time for
// o.seconds, and on until o.minTxns transactions finished (capped at three
// times the run length). With traced set, each transaction's spans are kept.
func timedPhase(e *env, o options, traced *tracer) *phase {
	clients := e.w.clients(e, o.seed)
	for _, d := range e.docs {
		d.ref = nil // reference trees are only needed to build the clients
	}
	ph := &phase{clients: clients, results: make([]*clientResult, len(clients))}
	var done sync.WaitGroup
	var finished atomic.Int64
	before := e.c.TotalStats()
	rtBefore := readRuntime()
	start := time.Now()
	soft := start.Add(time.Duration(o.seconds * float64(time.Second)))
	hard := start.Add(time.Duration(3 * o.seconds * float64(time.Second)))
	for i, cl := range clients {
		res := &clientResult{aborts: map[string]int{}}
		ph.results[i] = res
		jitter := rand.New(rand.NewSource(o.seed*131 + int64(i)))
		done.Add(1)
		go func() {
			defer done.Done()
			for {
				now := time.Now()
				if now.After(hard) || (now.After(soft) && finished.Load() >= int64(o.minTxns)) {
					return
				}
				runLogical(e.c, cl.next(), res, traced, start, jitter)
				finished.Add(1)
			}
		}()
	}
	done.Wait()
	ph.elapsed = time.Since(start)
	ph.rt = readRuntime().sub(rtBefore)
	ph.stats = statsDelta(e.c.TotalStats(), before)
	return ph
}

// txnRecord holds the spans of one logical transaction in a traced run.
type txnRecord struct {
	spans []span
}

// runLogical runs one planned transaction to an outcome, resubmitting it
// while it fails with a retryable typed error.
func runLogical(c *dtx.Cluster, p *plan, res *clientResult, traced *tracer, epoch time.Time, jitter *rand.Rand) {
	var rec *txnRecord
	var root int
	if traced != nil {
		rec = &txnRecord{}
		root = traced.open(rec, -1, "txn."+p.kind.String())
	}
	start := time.Now()
	var err error
	attempt := 1
	for ; attempt <= maxAttempts; attempt++ {
		res.attempts++
		var at int
		if rec != nil {
			at = traced.open(rec, root, "attempt")
		}
		err = runAttempt(c, p, res, traced, rec, at)
		if rec != nil {
			traced.close(rec, at)
		}
		if err == nil {
			break
		}
		class := errClass(err)
		res.aborts[class]++
		if class == "other" {
			break
		}
		time.Sleep(time.Duration(jitter.Int63n(int64(retryPause << min(attempt-1, 5)))))
	}
	end := time.Now()
	res.outcomes = append(res.outcomes, outcome{
		kind:      p.kind,
		end:       end.Sub(epoch),
		ms:        float64(end.Sub(start)) / float64(time.Millisecond),
		committed: err == nil,
	})
	if rec != nil {
		traced.close(rec, root)
		res.txns = append(res.txns, rec)
	}
	if err != nil {
		res.failed++
		if res.firstFailure == "" {
			res.firstFailure = fmt.Sprintf("after %d attempts: %v", min(attempt, maxAttempts), err)
		}
		return
	}
	res.committed[p.kind]++
	if p.onCommit != nil {
		p.onCommit()
	}
}

// runAttempt is one Begin → steps → Commit try, checking every query result
// it can.
func runAttempt(c *dtx.Cluster, p *plan, res *clientResult, traced *tracer, rec *txnRecord, parent int) error {
	ctx := context.Background()
	var sp int
	if rec != nil {
		sp = traced.open(rec, parent, "dtx.begin")
	}
	var t *dtx.Txn
	var err error
	if p.kind == kindSnap {
		t, err = c.BeginReadOnly(ctx, p.site)
	} else {
		t, err = c.Begin(ctx, p.site)
	}
	if rec != nil {
		traced.close(rec, sp)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		rec.spans[parent].Txn = t.ID() // joins the scheduler's trace to this attempt
	}
	for i, st := range p.steps {
		if rec != nil && len(res.sample) < sampleSteps {
			res.sample = append(res.sample, st)
		}
		if rec != nil {
			name := "dtx.query"
			if st.query == "" {
				name = "dtx.update"
			}
			sp = traced.openStep(rec, parent, name, t.ID(), i)
		}
		got, err := t.Do(st.op)
		if rec != nil {
			traced.close(rec, sp)
		}
		if st.query != "" {
			res.queries++
		}
		if err != nil {
			_ = t.Abort() // the step's error already ended the transaction; Abort only releases what is left
			return err
		}
		if st.query != "" {
			if msg := checkResult(st, got); msg != "" {
				res.mismatches++
				if res.firstMismatch == "" {
					res.firstMismatch = fmt.Sprintf("txn %s step %d %s %s: %s", t.ID(), i, st.doc, st.query, msg)
				}
			}
		}
	}
	if rec != nil {
		sp = traced.open(rec, parent, "dtx.commit")
	}
	err = t.Commit()
	if rec != nil {
		traced.close(rec, sp)
	}
	return err
}

func checkResult(st step, got []string) string {
	if st.want != nil {
		if len(got) != len(st.want) {
			return fmt.Sprintf("%d results, want %d", len(got), len(st.want))
		}
		for i := range got {
			if got[i] != st.want[i] {
				return fmt.Sprintf("result %d is %q, want %q", i, got[i], st.want[i])
			}
		}
		return ""
	}
	if st.nonEmpty && len(got) == 0 {
		return "no results from a query known to match"
	}
	return ""
}

// errClass names the typed error an attempt ended with; every class but
// "other" is an abort, after which resubmitting is safe.
func errClass(err error) string {
	switch {
	case errors.Is(err, dtx.ErrDeadlock):
		return "ErrDeadlock"
	case errors.Is(err, dtx.ErrSnapshotUnavailable):
		return "ErrSnapshotUnavailable"
	case errors.Is(err, dtx.ErrReplicaUnavailable):
		return "ErrReplicaUnavailable"
	case errors.Is(err, dtx.ErrAborted):
		return "ErrAborted"
	default:
		return "other"
	}
}

// ---- phase accessors ----

// latencies returns the sorted latencies of the transactions of one kind, or
// of every kind with k < 0, that finished in [from, to).
func (ph *phase) latencies(k kind, from, to time.Duration) []float64 {
	var out []float64
	for _, r := range ph.results {
		for _, o := range r.outcomes {
			if (k < 0 || o.kind == k) && o.end >= from && o.end < to {
				out = append(out, o.ms)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// all returns the sorted latencies of every transaction of kind k (every
// kind with k < 0).
func (ph *phase) all(k kind) []float64 { return ph.latencies(k, 0, math.MaxInt64) }

// windows splits the phase into n equal windows and returns, per window,
// the committed transactions per second and the median latency.
func (ph *phase) windows(n int) (tps, p50 []float64) {
	w := ph.elapsed / time.Duration(n)
	for i := 0; i < n; i++ {
		from, to := time.Duration(i)*w, time.Duration(i+1)*w
		commits := 0
		for _, r := range ph.results {
			for _, o := range r.outcomes {
				if o.committed && o.end >= from && o.end < to {
					commits++
				}
			}
		}
		tps = append(tps, float64(commits)/w.Seconds())
		p50 = append(p50, quantile(ph.latencies(-1, from, to), 0.5))
	}
	return tps, p50
}

func (ph *phase) sum(f func(*clientResult) int) int {
	n := 0
	for _, r := range ph.results {
		n += f(r)
	}
	return n
}

func (ph *phase) committedTxns() int {
	n := 0
	for k := kind(0); k < numKinds; k++ {
		n += ph.committedOf(k)
	}
	return n
}

func (ph *phase) failedTxns() int  { return ph.sum(func(r *clientResult) int { return r.failed }) }
func (ph *phase) logicalTxns() int { return ph.committedTxns() + ph.failedTxns() }
func (ph *phase) attempts() int    { return ph.sum(func(r *clientResult) int { return r.attempts }) }
func (ph *phase) queries() int     { return ph.sum(func(r *clientResult) int { return r.queries }) }
func (ph *phase) mismatches() int  { return ph.sum(func(r *clientResult) int { return r.mismatches }) }

func (ph *phase) committedOf(k kind) int {
	return ph.sum(func(r *clientResult) int { return r.committed[k] })
}

func (ph *phase) aborts() map[string]int {
	out := map[string]int{}
	for _, r := range ph.results {
		for c, n := range r.aborts {
			out[c] += n
		}
	}
	return out
}

func (ph *phase) firstMismatch() string {
	for _, r := range ph.results {
		if r.firstMismatch != "" {
			return r.firstMismatch
		}
		if r.firstFailure != "" {
			return "failed transaction: " + r.firstFailure
		}
	}
	return ""
}

// statsDelta subtracts two TotalStats readings field by field.
func statsDelta(a, b dtx.Stats) dtx.Stats {
	return dtx.Stats{
		TxnsCommitted:      a.TxnsCommitted - b.TxnsCommitted,
		TxnsAborted:        a.TxnsAborted - b.TxnsAborted,
		TxnsFailed:         a.TxnsFailed - b.TxnsFailed,
		DeadlockAborts:     a.DeadlockAborts - b.DeadlockAborts,
		LocalDeadlocks:     a.LocalDeadlocks - b.LocalDeadlocks,
		DistDeadlocks:      a.DistDeadlocks - b.DistDeadlocks,
		OpsExecuted:        a.OpsExecuted - b.OpsExecuted,
		OpConflicts:        a.OpConflicts - b.OpConflicts,
		RemoteOpsSent:      a.RemoteOpsSent - b.RemoteOpsSent,
		RemoteOpsProcessed: a.RemoteOpsProcessed - b.RemoteOpsProcessed,
		LocksAcquired:      a.LocksAcquired - b.LocksAcquired,
		PersistErrors:      a.PersistErrors - b.PersistErrors,
		SnapshotReads:      a.SnapshotReads - b.SnapshotReads,
		SnapshotPublishes:  a.SnapshotPublishes - b.SnapshotPublishes,
		LogRecordsShipped:  a.LogRecordsShipped - b.LogRecordsShipped,
		LogRecordsApplied:  a.LogRecordsApplied - b.LogRecordsApplied,
		ReplStaleRefusals:  a.ReplStaleRefusals - b.ReplStaleRefusals,
		ReplCatchupRecords: a.ReplCatchupRecords - b.ReplCatchupRecords,
		IndexedQueries:     a.IndexedQueries - b.IndexedQueries,
		ProtocolSwitches:   a.ProtocolSwitches - b.ProtocolSwitches,
	}
}
