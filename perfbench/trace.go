package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a transaction: the benchmark's own spans
// around each Txn call, and the scheduler's trace events joined to them by
// transaction ID. Times are nanoseconds since the traced phase began.
type span struct {
	Name   string
	Txn    string // scheduler transaction ID, on attempt, step and event spans
	Parent int    // index in the transaction's span list, -1 for the root
	Start  int64
	End    int64
	op     int // step index of a dtx.query / dtx.update span, else -1
}

// layer names the module a span's time belongs to.
func (s span) layer() string {
	switch {
	case strings.HasPrefix(s.Name, "txn."), s.Name == "attempt":
		return "bench"
	case strings.HasPrefix(s.Name, "dtx."):
		return "dtx"
	case strings.HasPrefix(s.Name, "lock."):
		return "lock"
	default:
		return "sched"
	}
}

// tracer records spans in memory; each transaction's spans live in its own
// record, written only by the client goroutine running it.
type tracer struct {
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) open(rec *txnRecord, parent int, name string) int {
	rec.spans = append(rec.spans, span{Name: name, Parent: parent, Start: t.now(), op: -1})
	return len(rec.spans) - 1
}

func (t *tracer) openStep(rec *txnRecord, parent int, name, txnID string, op int) int {
	i := t.open(rec, parent, name)
	rec.spans[i].Txn = txnID
	rec.spans[i].op = op
	return i
}

func (t *tracer) close(rec *txnRecord, i int) { rec.spans[i].End = t.now() }

// traceSink collects the scheduler's per-transaction JSON trace lines.
type traceSink struct {
	mu    sync.Mutex
	lines []string
}

func (s *traceSink) add(line string) {
	s.mu.Lock()
	s.lines = append(s.lines, line)
	s.mu.Unlock()
}

func (s *traceSink) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.lines
	s.lines = nil
	return out
}

// schedTrace is the scheduler's trace line format.
type schedTrace struct {
	Txn    string `json:"txn"`
	Events []struct {
		Ev string  `json:"ev"`
		Op int     `json:"op"`
		At float64 `json:"at_ms"`
		Ms float64 `json:"ms"`
	} `json:"events"`
}

// join attaches every timed scheduler event to the benchmark span it ran
// under, so each transaction has one timeline: exec and lock-wait events to
// the step of the same operation index, 2PC phases to the commit call. An
// event's interval ends at the trace's begin (the end of the Begin call)
// plus its offset. It returns how many trace lines matched a transaction.
func join(recs []*txnRecord, lines []string) (int, error) {
	type attemptRef struct {
		rec     *txnRecord
		attempt int
	}
	byID := map[string]attemptRef{}
	for _, r := range recs {
		for i, s := range r.spans {
			if s.Name == "attempt" && s.Txn != "" {
				byID[s.Txn] = attemptRef{r, i}
			}
		}
	}
	matched := 0
	for _, line := range lines {
		var tr schedTrace
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			return matched, fmt.Errorf("trace line %q: %w", line, err)
		}
		ref, ok := byID[tr.Txn]
		if !ok {
			continue
		}
		matched++
		r := ref.rec
		begin, commit := -1, -1
		steps := map[int]int{}
		for i, s := range r.spans {
			if s.Parent != ref.attempt {
				continue
			}
			switch s.Name {
			case "dtx.begin":
				begin = i
			case "dtx.commit":
				commit = i
			case "dtx.query", "dtx.update":
				steps[s.op] = i
			}
		}
		if begin < 0 {
			continue
		}
		anchor := r.spans[begin].End
		execs := map[int]int{}
		fanout := -1
		for _, ev := range tr.Events {
			if ev.Ms <= 0 {
				continue // instants: begin, finish
			}
			end := anchor + int64(ev.At*float64(time.Millisecond))
			s := span{Txn: tr.Txn, Start: end - int64(ev.Ms*float64(time.Millisecond)), End: end, op: -1}
			switch ev.Ev {
			case "exec", "lock-wait":
				step, ok := steps[ev.Op]
				if !ok {
					continue
				}
				s.Name, s.Parent = "sched.exec", step
				if ev.Ev == "lock-wait" {
					s.Name = "lock.wait"
				}
			default:
				if commit < 0 {
					continue
				}
				s.Name, s.Parent = "sched."+ev.Ev, commit
			}
			// Clip to the parent call: the anchor is the end of the Begin
			// call, not the scheduler's own begin, so edges can overhang.
			parent := r.spans[s.Parent]
			s.Start, s.End = max(s.Start, parent.Start), min(s.End, parent.End)
			s.Start = min(s.Start, s.End)
			r.spans = append(r.spans, s)
			idx := len(r.spans) - 1
			switch ev.Ev {
			case "exec":
				execs[ev.Op] = idx
			case "2pc-commit-fanout":
				fanout = idx
			}
		}
		// Nest lock waits inside their operation's exec span, and the quorum
		// wait inside the commit fan-out when the coordinator saw both.
		for i := range r.spans {
			s := &r.spans[i]
			switch {
			case s.Name == "lock.wait":
				for _, ei := range execs {
					if r.spans[ei].Parent == s.Parent && contains(r.spans[ei], *s) {
						s.Parent = ei
						break
					}
				}
			case s.Name == "sched.2pc-quorum-ack" && fanout >= 0 && contains(r.spans[fanout], *s):
				s.Parent = fanout
			}
		}
	}
	return matched, nil
}

func contains(outer, inner span) bool { return inner.Start >= outer.Start && inner.End <= outer.End }

// selfTimes sums, per layer, each span's duration minus the part of it its
// children cover, over every transaction.
func selfTimes(recs []*txnRecord) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, r := range recs {
		children := make([][]span, len(r.spans))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		for i, s := range r.spans {
			out[s.layer()] += time.Duration(s.End - s.Start - covered(s, children[i]))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := parent.Start
	for _, v := range ivs {
		if v.b > end {
			total += v.b - max(v.a, end)
			end = v.b
		}
	}
	return total
}

// writeSpans dumps every span as one JSON line, with run-wide span IDs.
func writeSpans(path string, recs []*txnRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type out struct {
		ID     int    `json:"id"`
		Parent int    `json:"parent"`
		Txn    string `json:"txn,omitempty"`
		Name   string `json:"name"`
		Layer  string `json:"layer"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	base := 0
	for _, r := range recs {
		for i, s := range r.spans {
			parent := -1
			if s.Parent >= 0 {
				parent = base + s.Parent
			}
			if err := enc.Encode(out{base + i, parent, s.Txn, s.Name, s.layer(), s.Start, s.End}); err != nil {
				f.Close()
				return err
			}
		}
		base += len(r.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
