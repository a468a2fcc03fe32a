package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	dtx "repro"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

// kind is the transaction shape a latency belongs to.
type kind int

const (
	kindWrite kind = iota // locked read-write transaction
	kindRead              // locked read transaction (Begin)
	kindSnap              // MVCC snapshot transaction (BeginReadOnly)
	numKinds
)

func (k kind) String() string { return [...]string{"write", "read", "snap"}[k] }

// hotEntries bounds the positional targets of updates to the first entries
// of a section, so writers meet on the same nodes often enough to conflict.
const hotEntries = 20

// workload describes one closed-loop traffic mix. Every workload runs two
// client goroutines, one per CPU of the reference machine.
type workload struct {
	name    string
	why     string
	docs    int
	config  dtx.Config
	clients func(e *env, seed int64) []client
}

var workloads = map[string]*workload{
	"read-scan": {
		name: "read-scan",
		why:  "read path alone: xpath, DataGuide, value index, S locks and MVCC pins, with no writer",
		docs: 2,
		config: dtx.Config{
			Sites:       2,
			Protocol:    dtx.XDGL,
			IndexedKeys: []string{"id"},
		},
		clients: readScanClients,
	},
	"quorum-mix": {
		name: "quorum-mix",
		why:  "writes beside locked and snapshot reads under quorum log shipping, with real lock conflicts and deadlocks",
		docs: 2,
		config: dtx.Config{
			Sites:       3,
			Protocol:    dtx.XDGL,
			Replication: dtx.ReplicationQuorum,
			WriteQuorum: 2,
			IndexedKeys: []string{"id"},
		},
		clients: quorumMixClients,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// docInfo is what the benchmark keeps about one generated document.
type docInfo struct {
	name     string
	sections []string
	ids      map[string][]string // section -> id values of its entities, in document order
	hash     [32]byte            // sha256 of the XML handed to LoadXML
	ref      *xmltree.Document   // parsed reference copy; dropped before the heap is measured
}

// env is one set-up cluster with its documents.
type env struct {
	w            *workload
	c            *dtx.Cluster
	docs         []*docInfo
	setupSeconds float64
	traceSink    *traceSink // nil in untraced runs
}

func (e *env) close() {
	if e.c != nil {
		e.c.Close()
		e.c = nil
	}
}

// setup builds the cluster and times the whole set-up: generating the
// documents, loading them at every replica, draining the persist pipeline,
// waiting for quorum followers, and one untimed pass over each query shape.
func setup(wl *workload, o options, traced bool) (*env, error) {
	runtime.GC()
	e := &env{w: wl}
	cfg := wl.config
	if traced {
		e.traceSink = &traceSink{}
		cfg.TraceSink = e.traceSink.add
	}
	start := time.Now()
	c, err := dtx.New(cfg)
	if err != nil {
		return nil, err
	}
	e.c = c
	for i := 0; i < wl.docs; i++ {
		name := fmt.Sprintf("auction%d", i)
		tree := xmark.Gen(xmark.Config{Name: name, TargetBytes: o.docKB << 10, Seed: o.seed*1009 + int64(i)})
		xml := tree.String()
		if err := c.LoadXML(name, xml); err != nil {
			e.close()
			return nil, fmt.Errorf("load %s: %w", name, err)
		}
		e.docs = append(e.docs, &docInfo{
			name:     name,
			sections: xmark.Sections(tree),
			ids:      sectionIDs(tree),
			hash:     sha256.Sum256([]byte(xml)),
			ref:      tree,
		})
	}
	if _, err := quiesce(e, false); err != nil {
		e.close()
		return nil, err
	}
	if err := warm(e); err != nil {
		e.close()
		return nil, err
	}
	e.setupSeconds = time.Since(start).Seconds()
	return e, nil
}

// warm runs every section's query shapes once, locked and from a snapshot,
// so caches and lazily built structures are in place before timing.
func warm(e *env) error {
	ctx := context.Background()
	for _, d := range e.docs {
		rng := rand.New(rand.NewSource(1))
		var ops []dtx.Op
		for _, s := range d.sections {
			ops = append(ops, dtx.Query(d.name, xmark.QueryFor(s, rng)))
			if ids := d.ids[s]; len(ids) > 0 {
				ops = append(ops, dtx.Query(d.name, predicateQuery(s, ids[0])))
			}
		}
		for site := 0; site < e.c.Sites(); site++ {
			if _, err := e.c.SubmitCtx(ctx, site, ops...); err != nil {
				return fmt.Errorf("warm locked pass: %w", err)
			}
			if _, err := e.c.SubmitReadOnlyCtx(ctx, site, ops...); err != nil {
				return fmt.Errorf("warm snapshot pass: %w", err)
			}
		}
	}
	return nil
}

// sectionIDs lists the id values of every section's entities.
func sectionIDs(doc *xmltree.Document) map[string][]string {
	out := make(map[string][]string)
	for _, s := range xmark.Sections(doc) {
		for _, ent := range sectionEntities(doc, s) {
			for _, ch := range ent.Children {
				if ch.Name == "id" {
					out[s] = append(out[s], ch.Text)
					break
				}
			}
		}
	}
	return out
}

func sectionEntities(doc *xmltree.Document, section string) []*xmltree.Node {
	n := doc.Root
	for _, label := range strings.Split(section, "/") {
		var next *xmltree.Node
		for _, ch := range n.Children {
			if ch.Name == label {
				next = ch
				break
			}
		}
		if next == nil {
			return nil
		}
		n = next
	}
	return n.Children
}

// predicateQuery is xmark.PredicateQueryFor for an id value read from the
// document, so the lookup is known to match.
func predicateQuery(section, id string) string {
	n, _ := strconv.ParseInt(id, 10, 64) // xmark writes ids as decimal integers
	return xmark.PredicateQueryFor(section, n)
}

// entityPath is the positional path of a section's k-th entity (1-based).
func entityPath(section string, k int) string {
	if region, ok := strings.CutPrefix(section, "regions/"); ok {
		return fmt.Sprintf("/site/regions/%s/item[%d]", region, k)
	}
	switch section {
	case "people":
		return fmt.Sprintf("/site/people/person[%d]", k)
	case "open_auctions":
		return fmt.Sprintf("/site/open_auctions/open_auction[%d]", k)
	case "closed_auctions":
		return fmt.Sprintf("/site/closed_auctions/closed_auction[%d]", k)
	default:
		return fmt.Sprintf("/site/categories/category[%d]", k)
	}
}

// changeField is the text field a size-neutral update rewrites per section.
func changeField(section string) string {
	switch {
	case strings.HasPrefix(section, "regions/"):
		return "price"
	case section == "people":
		return "phone"
	case section == "open_auctions":
		return "current"
	case section == "closed_auctions":
		return "price"
	default:
		return "name"
	}
}

// evalRef evaluates a query on a reference tree.
func evalRef(doc *xmltree.Document, path string) []string {
	return xpath.EvalStrings(xpath.MustParse(path), doc)
}

// ---- operations ----

// step is one operation of a planned transaction.
type step struct {
	op       dtx.Op
	query    string          // the XPath of a query step, "" for an update
	doc      string          // the document the step addresses
	upd      *xupdate.Update // the update of an update step, for the layer probes
	want     []string        // exact expected query result, when known
	nonEmpty bool            // the query is known to match
}

func queryStep(doc, path string) step {
	return step{op: dtx.Query(doc, path), query: path, doc: doc}
}

func changeStep(doc, path, value string) step {
	return step{
		op:  dtx.Change(doc, path, value),
		doc: doc,
		upd: &xupdate.Update{Kind: xupdate.Change, Target: path, Value: value},
	}
}

// ownedPerson is the fixed-shape entity a quorum-mix client inserts and
// removes in alternation, so the document size never drifts.
func ownedPerson(client int) (dtx.Node, *xupdate.NodeSpec) {
	id := fmt.Sprintf("c%d", client)
	node := dtx.Elem("person", "",
		dtx.Elem("id", id),
		dtx.Elem("name", "Owner "+id),
		dtx.Elem("emailaddress", id+"@example.org"))
	spec := &xupdate.NodeSpec{Name: "person", Children: []*xupdate.NodeSpec{
		{Name: "id", Text: id},
		{Name: "name", Text: "Owner " + id},
		{Name: "emailaddress", Text: id + "@example.org"},
	}}
	return node, spec
}

// plan is one logical transaction of a client.
type plan struct {
	kind     kind
	site     int
	steps    []step
	onCommit func()
}

// client generates a stream of transactions and keeps what it needs to
// check their results.
type client interface {
	next() *plan
	// readback checks, on a replica's final state, that this client's last
	// committed writes are visible; peers are the other clients.
	readback(doc func(name string) *xmltree.Document, peers []client) error
}

// value returns a fixed-width text unique to (client, seq): every update
// rewrites a field with the same number of bytes.
func value(client int, seq int64) string {
	return fmt.Sprintf("%d%09d", client, seq%1_000_000_000)
}

// ---- read-scan ----

// scanReader cycles through a pre-generated list of read transactions whose
// results were computed on reference copies of the documents: client 0 runs
// them locked, client 1 from MVCC snapshots.
type scanReader struct {
	plans []*plan
	i     int
}

// scanPlans is the number of distinct transactions per read-scan client.
const scanPlans = 1024

func readScanClients(e *env, seed int64) []client {
	cache := map[string][]string{}
	expect := func(d *docInfo, path string) []string {
		key := d.name + "\x00" + path
		if r, ok := cache[key]; ok {
			return r
		}
		r := evalRef(d.ref, path)
		cache[key] = r
		return r
	}
	var out []client
	for i, k := range []kind{kindRead, kindSnap} {
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		c := &scanReader{}
		for j := 0; j < scanPlans; j++ {
			p := &plan{kind: k, site: i}
			for q := 0; q < 4; q++ {
				d := e.docs[rng.Intn(len(e.docs))]
				s := d.sections[rng.Intn(len(d.sections))]
				var path string
				if q < 2 {
					path = xmark.QueryFor(s, rng)
				} else {
					ids := d.ids[s]
					path = predicateQuery(s, ids[rng.Intn(len(ids))])
				}
				st := queryStep(d.name, path)
				st.want = expect(d, path)
				st.nonEmpty = len(st.want) > 0
				p.steps = append(p.steps, st)
			}
			c.plans = append(c.plans, p)
		}
		out = append(out, c)
	}
	return out
}

func (c *scanReader) next() *plan {
	p := c.plans[c.i%len(c.plans)]
	c.i++
	return p
}

// readback has nothing to check per client: with no writer, the gate
// compares every replica with the generated document instead.
func (c *scanReader) readback(func(string) *xmltree.Document, []client) error { return nil }

// ---- quorum-mix ----

// quorumClient draws its transaction kinds from a shuffled deck of ten (4
// updates, 3 snapshot reads, 3 locked reads), so every run has exactly the
// same mix, and its sections from a Zipf distribution, so both clients meet
// on the hot sections and real lock conflicts and deadlocks occur.
type quorumClient struct {
	id    int
	site  int
	e     *env
	rng   *rand.Rand
	zipf  *rand.Zipf
	deck  []kind
	seq   int64
	owned map[string]bool   // doc -> the client's own person is currently inserted
	last  map[string]string // doc+path -> last value this client committed
}

func quorumMixClients(e *env, seed int64) []client {
	var out []client
	for i := 0; i < 2; i++ {
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		nsec := len(e.docs[0].sections)
		out = append(out, &quorumClient{
			id:    i,
			site:  i + 1, // followers: every locked operation is routed to the primary, site 0
			e:     e,
			rng:   rng,
			zipf:  rand.NewZipf(rng, 1.2, 1, uint64(nsec-1)),
			owned: map[string]bool{},
			last:  map[string]string{},
		})
	}
	return out
}

func (c *quorumClient) pick() (*docInfo, string) {
	d := c.e.docs[c.rng.Intn(len(c.e.docs))]
	return d, d.sections[int(c.zipf.Uint64())%len(d.sections)]
}

func (c *quorumClient) read() step {
	d, s := c.pick()
	var path string
	if ids := d.ids[s]; c.rng.Intn(2) == 0 && len(ids) > 0 {
		path = predicateQuery(s, ids[c.rng.Intn(len(ids))])
	} else {
		path = xmark.QueryFor(s, c.rng)
	}
	st := queryStep(d.name, path)
	st.nonEmpty = true
	return st
}

func (c *quorumClient) next() *plan {
	if len(c.deck) == 0 {
		c.deck = []kind{kindWrite, kindWrite, kindWrite, kindWrite, kindSnap, kindSnap, kindSnap, kindRead, kindRead, kindRead}
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	k := c.deck[0]
	c.deck = c.deck[1:]
	p := &plan{kind: k, site: c.site}
	if k != kindWrite {
		for i := 0; i < 4; i++ {
			p.steps = append(p.steps, c.read())
		}
		return p
	}
	for i := 0; i < 3; i++ {
		p.steps = append(p.steps, c.read())
	}
	d, s := c.pick()
	c.seq++
	if s == "people" && c.rng.Intn(2) == 0 {
		// Insert or remove the client's own person: index maintenance on
		// the id key, with the size bounded by one entity.
		node, spec := ownedPerson(c.id)
		owned := c.owned[d.name]
		var st step
		if owned {
			target := fmt.Sprintf("/site/people/person[id='c%d']", c.id)
			st = step{op: dtx.Remove(d.name, target), doc: d.name, upd: &xupdate.Update{Kind: xupdate.Remove, Target: target}}
		} else {
			st = step{op: dtx.Insert(d.name, "/site/people", dtx.Into, node), doc: d.name,
				upd: &xupdate.Update{Kind: xupdate.Insert, Target: "/site/people", Pos: xmltree.Into, New: spec}}
		}
		p.steps = append(p.steps, st)
		p.onCommit = func() { c.owned[d.name] = !owned }
		return p
	}
	path := entityPath(s, 1+c.rng.Intn(min(hotEntries, len(d.ids[s])))) + "/" + changeField(s)
	v := value(c.id, c.seq)
	p.steps = append(p.steps, changeStep(d.name, path, v))
	key := d.name + "\x00" + path
	p.onCommit = func() { c.last[key] = v }
	return p
}

// readback requires every path this client wrote to hold the last value
// some client committed there, and exactly this client's value where no
// other client wrote it. The owned person must be present exactly when the
// client's last committed toggle inserted it.
func (c *quorumClient) readback(doc func(string) *xmltree.Document, peers []client) error {
	for key, v := range c.last {
		name, path, _ := strings.Cut(key, "\x00")
		got := evalRef(doc(name), path)
		ok := len(got) == 1 && got[0] == v
		for _, p := range peers {
			if pv, wrote := p.(*quorumClient).last[key]; wrote && len(got) == 1 && got[0] == pv {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("client %d: %s %s reads %q, no client's last committed value (own %q)", c.id, name, path, got, v)
		}
	}
	for _, d := range c.e.docs {
		n := len(evalRef(doc(d.name), fmt.Sprintf("/site/people/person[id='c%d']/id", c.id)))
		if n > 1 || (n == 1) != c.owned[d.name] {
			return fmt.Errorf("client %d: %d owned persons in %s, want present=%v", c.id, n, d.name, c.owned[d.name])
		}
	}
	return nil
}
