package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/dataguide"
	"repro/internal/store"
	"repro/internal/vindex"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 5

// probes times each layer module's public functions on the workload's own
// inputs: the traced cluster's documents at their end-of-run size, and the
// queries and updates its clients ran. A layer the workload does not
// exercise (no update, no value index) reads 0.
func probes(wl *workload, e *env, ph *phase) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	xmls, err := quiesce(e, true)
	if err != nil {
		return nil, err
	}
	docs := map[string]*xmltree.Document{}
	var names []string
	for name := range xmls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if docs[name], err = xmltree.ParseString(name, xmls[name]); err != nil {
			return nil, err
		}
	}
	var queries, updates []step
	for _, r := range ph.results {
		for _, st := range r.sample {
			if st.query != "" {
				queries = append(queries, st)
			} else {
				updates = append(updates, st)
			}
		}
	}
	writes := len(updates) > 0
	indexed := len(wl.config.IndexedKeys) > 0
	perDoc := func(f func(name string, d *xmltree.Document)) float64 {
		return timeMedian(func() {
			for _, name := range names {
				f(name, docs[name])
			}
		}) / float64(len(names))
	}
	ms := func(ns float64) float64 { return ns / float64(time.Millisecond) }

	// xmltree: the per-commit and set-up costs of a whole document.
	put("xmltree.parse_ms", ms(perDoc(func(name string, _ *xmltree.Document) {
		if _, err := xmltree.ParseString(name, xmls[name]); err != nil {
			panic(err) // parsed once above already
		}
	})), "ms")
	put("xmltree.clone_ms", ms(perDoc(func(_ string, d *xmltree.Document) { d.Clone() })), "ms")
	put("xmltree.snapshot_ms", ms(perDoc(func(_ string, d *xmltree.Document) { d.Snapshot() })), "ms")
	var buf bytes.Buffer
	put("xmltree.write_ms", ms(perDoc(func(_ string, d *xmltree.Document) {
		buf.Reset()
		_, _ = d.WriteTo(&buf) // writes to a bytes.Buffer do not fail
	})), "ms")

	// dataguide and vindex: building the structures a site keeps per document.
	put("dataguide.build_ms", ms(perDoc(func(_ string, d *xmltree.Document) { dataguide.Build(d) })), "ms")
	if indexed {
		put("vindex.build_doc_index_ms", ms(perDoc(func(_ string, d *xmltree.Document) {
			vindex.BuildDocIndex(d, wl.config.IndexedKeys)
		})), "ms")
	} else {
		put("vindex.build_doc_index_ms", 0, "ms")
	}

	// xpath and dataguide: the workload's query mix.
	parsed := make([]*xpath.Query, len(queries))
	for i, q := range queries {
		if parsed[i], err = xpath.Parse(q.query); err != nil {
			return nil, fmt.Errorf("probe query %q: %w", q.query, err)
		}
	}
	us := func(d float64, n int) float64 { return ratio(d/float64(time.Microsecond), float64(n)) }
	put("xpath.parse_us", us(timeMedian(func() {
		for _, q := range queries {
			_, _ = xpath.Parse(q.query) // parsed without error above
		}
	}), len(queries)), "us")
	put("xpath.eval_us", us(timeMedian(func() {
		for i, q := range queries {
			xpath.Eval(parsed[i], docs[q.doc])
		}
	}), len(queries)), "us")
	put("dataguide.targets_us", us(timeMedianFresh(
		func() map[string]*dataguide.DataGuide { return guides(docs, nil) },
		func(gs map[string]*dataguide.DataGuide) {
			for i, q := range queries {
				gs[q.doc].Targets(parsed[i])
			}
		}), len(queries)), "us")
	var eligible []int
	for i := range queries {
		if _, ok := vindex.PlanQuery(parsed[i]); ok {
			eligible = append(eligible, i)
		}
	}
	if indexed && len(eligible) > 0 {
		put("dataguide.eval_indexed_us", us(timeMedianFresh(
			func() map[string]*dataguide.DataGuide { return guides(docs, wl.config.IndexedKeys) },
			func(gs map[string]*dataguide.DataGuide) {
				for _, i := range eligible {
					gs[queries[i].doc].EvalIndexed(parsed[i], docs[queries[i].doc])
				}
			}), len(eligible)), "us")
	} else {
		put("dataguide.eval_indexed_us", 0, "us")
	}

	// xupdate and store: the workload's update mix and one persist write.
	if writes {
		type copyState struct {
			docs   map[string]*xmltree.Document
			guides map[string]*dataguide.DataGuide
		}
		var applyErr error
		put("xupdate.apply_undo_us", us(timeMedianFresh(
			func() copyState {
				cs := copyState{docs: map[string]*xmltree.Document{}}
				for name, d := range docs {
					cs.docs[name] = d.Clone()
				}
				cs.guides = guides(cs.docs, wl.config.IndexedKeys)
				return cs
			},
			func(cs copyState) {
				for _, u := range updates {
					d, g := cs.docs[u.doc], cs.guides[u.doc]
					rec, _, err := xupdate.Apply(u.upd, d, g)
					if err == nil {
						err = rec.Undo(d, g)
					}
					if err != nil && applyErr == nil {
						applyErr = err
					}
				}
			}), len(updates)), "us")
		if applyErr != nil {
			return nil, fmt.Errorf("probe update: %w", applyErr)
		}
		st := store.NewMemStore()
		put("store.save_ms", ms(perDoc(func(_ string, d *xmltree.Document) {
			if err := st.Save(d); err != nil {
				panic(err) // an in-memory save only serializes
			}
		})), "ms")
	} else {
		put("xupdate.apply_undo_us", 0, "us")
		put("store.save_ms", 0, "ms")
	}
	return m, nil
}

// guides builds a DataGuide per document, with a value index over keys when
// any are given, as a site does when it loads a document.
func guides(docs map[string]*xmltree.Document, keys []string) map[string]*dataguide.DataGuide {
	out := map[string]*dataguide.DataGuide{}
	for name, d := range docs {
		g := dataguide.Build(d)
		if len(keys) > 0 {
			g.AttachIndex(vindex.New(keys, 0))
			g.ReindexAll(d)
		}
		out[name] = g
	}
	return out
}

// timeMedian runs f probeReps times and returns the median duration in ns.
func timeMedian(f func()) float64 {
	return timeMedianFresh(func() struct{} { return struct{}{} }, func(struct{}) { f() })
}

// timeMedianFresh times f on a fresh state from prepare each repetition,
// leaving prepare out of the timing, and returns the median in ns.
func timeMedianFresh[T any](prepare func() T, f func(T)) float64 {
	var d []float64
	for i := 0; i < probeReps; i++ {
		s := prepare()
		start := time.Now()
		f(s)
		d = append(d, float64(time.Since(start)))
	}
	return median(d)
}
