package lock

import (
	"testing"

	"repro/internal/dataguide"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

const storeXML = `
<products>
  <product id="a"><id>4</id><description>Mouse</description><price>10.30</price></product>
  <product id="b"><id>14</id><description>Keyboard</description><price>9.90</price></product>
</products>`

func guide(t *testing.T) *dataguide.DataGuide {
	t.Helper()
	doc, err := xmltree.ParseString("d2", storeXML)
	if err != nil {
		t.Fatal(err)
	}
	return dataguide.Build(doc)
}

func owner(site int, seq int64, op int) Owner {
	return Owner{Txn: txn.ID{Site: site, Seq: seq}, TS: txn.TS(seq), Op: op}
}

func TestAcquireRelease(t *testing.T) {
	g := guide(t)
	tbl := NewTable(g)
	product := g.Lookup("/products/product")
	o1 := owner(1, 1, 0)
	if c := tbl.Acquire(o1, []Request{{Node: product, Mode: ST}}); c != nil {
		t.Fatalf("conflict on empty table: %v", c)
	}
	if tbl.HeldBy(o1.Txn) != 1 {
		t.Fatalf("held = %d", tbl.HeldBy(o1.Txn))
	}
	// Same txn re-requesting is absorbed.
	if c := tbl.Acquire(o1, []Request{{Node: product, Mode: ST}}); c != nil {
		t.Fatalf("re-request conflicted: %v", c)
	}
	if tbl.HeldBy(o1.Txn) != 1 {
		t.Fatalf("duplicate grant added: held = %d", tbl.HeldBy(o1.Txn))
	}
	if n := tbl.ReleaseAll(o1.Txn); n != 1 {
		t.Fatalf("released = %d", n)
	}
	if tbl.GrantCount() != 0 {
		t.Fatal("grants remain")
	}
}

func TestConflictReported(t *testing.T) {
	g := guide(t)
	tbl := NewTable(g)
	product := g.Lookup("/products/product")
	o1, o2 := owner(1, 1, 0), owner(1, 2, 0)
	if c := tbl.Acquire(o1, []Request{{Node: product, Mode: ST}}); c != nil {
		t.Fatal(c)
	}
	conflicts := tbl.Acquire(o2, []Request{{Node: product, Mode: IX}})
	if len(conflicts) != 1 || conflicts[0].Txn != o1.Txn {
		t.Fatalf("conflicts = %v", conflicts)
	}
	// Nothing was granted to o2.
	if tbl.HeldBy(o2.Txn) != 0 {
		t.Fatal("partial grant leaked on conflict")
	}
	// Compatible request still fine.
	if c := tbl.Acquire(o2, []Request{{Node: product, Mode: IS}}); c != nil {
		t.Fatalf("IS should coexist with ST: %v", c)
	}
}

func TestAtomicAcquireAllOrNothing(t *testing.T) {
	g := guide(t)
	tbl := NewTable(g)
	product := g.Lookup("/products/product")
	price := g.Lookup("/products/product/price")
	o1, o2 := owner(1, 1, 0), owner(1, 2, 0)
	if c := tbl.Acquire(o1, []Request{{Node: price, Mode: X}}); c != nil {
		t.Fatal(c)
	}
	// o2 requests two locks; the second conflicts, so the first must not
	// be granted either.
	conflicts := tbl.Acquire(o2, []Request{
		{Node: product, Mode: IS},
		{Node: price, Mode: ST},
	})
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %v", conflicts)
	}
	if tbl.HeldBy(o2.Txn) != 0 {
		t.Fatal("acquire was not atomic")
	}
}

func TestReleaseOpKeepsEarlierOps(t *testing.T) {
	g := guide(t)
	tbl := NewTable(g)
	product := g.Lookup("/products/product")
	price := g.Lookup("/products/product/price")
	id := txn.ID{Site: 1, Seq: 1}
	if c := tbl.Acquire(Owner{Txn: id, TS: 1, Op: 0}, []Request{{Node: product, Mode: ST}}); c != nil {
		t.Fatal(c)
	}
	if c := tbl.Acquire(Owner{Txn: id, TS: 1, Op: 1}, []Request{{Node: price, Mode: X}}); c != nil {
		t.Fatal(c)
	}
	if n := tbl.ReleaseOp(id, 1); n != 1 {
		t.Fatalf("released = %d, want 1", n)
	}
	if tbl.HeldBy(id) != 1 {
		t.Fatalf("held = %d, want 1 (op 0 lock must stay)", tbl.HeldBy(id))
	}
	if got := tbl.Modes(id, product); len(got) != 1 || got[0] != ST {
		t.Fatalf("modes = %v", got)
	}
	// Releasing an op that re-requested an existing lock must not drop it:
	// op 2 asks for ST on product (granted to op 2 too), then is released.
	if c := tbl.Acquire(Owner{Txn: id, TS: 1, Op: 2}, []Request{{Node: product, Mode: ST}}); c != nil {
		t.Fatal(c)
	}
	tbl.ReleaseOp(id, 2)
	if tbl.HeldBy(id) != 1 {
		t.Fatal("absorbed re-request was released with the later op")
	}
}

// TestReleaseOpKeepsSiblingOpLock: two concurrent queries of one
// transaction request the same lock, the later-numbered one first. Undoing
// that one must not strip the lock the other was granted on, or a writer
// slips in between the transaction's reads (a non-repeatable read that
// the cross-protocol serializability check caught under doclock).
func TestReleaseOpKeepsSiblingOpLock(t *testing.T) {
	g := guide(t)
	tbl := NewTable(g)
	product := g.Lookup("/products/product")
	reader := txn.ID{Site: 1, Seq: 1}
	if c := tbl.Acquire(Owner{Txn: reader, TS: 1, Op: 1}, []Request{{Node: product, Mode: ST}}); c != nil {
		t.Fatal(c)
	}
	if c := tbl.Acquire(Owner{Txn: reader, TS: 1, Op: 0}, []Request{{Node: product, Mode: ST}}); c != nil {
		t.Fatal(c)
	}
	tbl.ReleaseOp(reader, 1)
	if got := tbl.Modes(reader, product); len(got) != 1 || got[0] != ST {
		t.Fatalf("op 0 lost its lock with op 1's undo: modes = %v", got)
	}
	writer := Owner{Txn: txn.ID{Site: 2, Seq: 1}, TS: 2, Op: 0}
	if c := tbl.Acquire(writer, []Request{{Node: product, Mode: X}}); len(c) != 1 || c[0].Txn != reader {
		t.Fatalf("writer conflicts = %v, want the reader", c)
	}
}

func TestPathLockSemantics(t *testing.T) {
	doc, err := xmltree.ParseString("d2", storeXML)
	if err != nil {
		t.Fatal(err)
	}
	g := dataguide.Build(doc)
	tbl := NewTable(g)
	root := doc.Root
	product := xpath.Eval(xpath.MustParse("/products/product[1]"), doc)[0]
	price := xpath.Eval(xpath.MustParse("/products/product[1]/price"), doc)[0]
	o1, o2, o3 := owner(1, 1, 0), owner(1, 2, 0), owner(1, 3, 0)

	// A reader of the first product's price locks the full path.
	readerPath := []Request{
		{DocNode: root, Mode: R},
		{DocNode: product, Mode: R},
		{DocNode: price, Mode: R},
	}
	if c := tbl.Acquire(o1, readerPath); c != nil {
		t.Fatal(c)
	}
	// A writer on the price conflicts at the price node.
	if c := tbl.Acquire(o2, []Request{{DocNode: price, Mode: W}}); len(c) != 1 || c[0].Txn != o1.Txn {
		t.Fatalf("W on read node conflicts = %v", c)
	}
	// A writer on the product node (structural change of its children)
	// conflicts at the product node via the reader's path lock.
	if c := tbl.Acquire(o2, []Request{{DocNode: product, Mode: W}}); len(c) != 1 {
		t.Fatalf("W on path node conflicts = %v", c)
	}
	// A writer on a disjoint sibling subtree passes: its path shares only
	// R-locked ancestors, and R/R is compatible.
	sibling := xpath.Eval(xpath.MustParse("/products/product[2]"), doc)[0]
	w2 := []Request{
		{DocNode: sibling, Mode: W},
		{DocNode: root, Mode: R},
	}
	if c := tbl.Acquire(o2, w2); c != nil {
		t.Fatalf("disjoint subtree W conflicted: %v", c)
	}
	// A reader whose path crosses the W-locked sibling is blocked there.
	siblingPrice := xpath.Eval(xpath.MustParse("/products/product[2]/price"), doc)[0]
	r3 := []Request{
		{DocNode: root, Mode: R},
		{DocNode: sibling, Mode: R},
		{DocNode: siblingPrice, Mode: R},
	}
	if c := tbl.Acquire(o3, r3); len(c) != 1 || c[0].Txn != o2.Txn {
		t.Fatalf("reader crossing W conflicts = %v", c)
	}
}

func TestMultipleConflictHolders(t *testing.T) {
	g := guide(t)
	tbl := NewTable(g)
	product := g.Lookup("/products/product")
	o1, o2, o3 := owner(1, 1, 0), owner(1, 2, 0), owner(1, 3, 0)
	if c := tbl.Acquire(o1, []Request{{Node: product, Mode: ST}}); c != nil {
		t.Fatal(c)
	}
	if c := tbl.Acquire(o2, []Request{{Node: product, Mode: ST}}); c != nil {
		t.Fatal(c)
	}
	conflicts := tbl.Acquire(o3, []Request{{Node: product, Mode: X}})
	if len(conflicts) != 2 {
		t.Fatalf("conflicts = %v, want both ST holders", conflicts)
	}
	// Conflict carries timestamps for wait-for edges.
	for _, c := range conflicts {
		if c.TS == 0 {
			t.Fatal("conflict missing timestamp")
		}
	}
	if got := tbl.Holders(product); len(got) != 2 {
		t.Fatalf("holders = %v", got)
	}
	if got := tbl.ActiveTxns(); len(got) != 2 {
		t.Fatalf("active = %v", got)
	}
}

// TestScenarioLockIncompatibility re-creates §2.4: a query holding ST on the
// products node blocks a concurrent insert needing IX there.
func TestScenarioLockIncompatibility(t *testing.T) {
	doc, err := xmltree.ParseString("d2", storeXML)
	if err != nil {
		t.Fatal(err)
	}
	g := dataguide.Build(doc)
	tbl := NewTable(g)
	p := XDGL{}

	// t2op1: query all products — ST on /products/product, IS above.
	qreqs, err := p.QueryRequests(doc, g, xpath.MustParse("//product"))
	if err != nil {
		t.Fatal(err)
	}
	o2 := owner(2, 2, 0)
	if c := tbl.Acquire(o2, qreqs); c != nil {
		t.Fatal(c)
	}

	// t1op2: insert a new product into /products — needs IX on /products.
	u := &xupdate.Update{Kind: xupdate.Insert, Target: "/products", Pos: xmltree.Into,
		New: &xupdate.NodeSpec{Name: "product", Children: []*xupdate.NodeSpec{{Name: "id", Text: "13"}}}}
	ureqs, err := p.UpdateRequests(doc, g, u)
	if err != nil {
		t.Fatal(err)
	}
	o1 := owner(1, 1, 0)
	conflicts := tbl.Acquire(o1, ureqs)
	if len(conflicts) != 1 || conflicts[0].Txn != o2.Txn {
		t.Fatalf("insert should block on the query: %v", conflicts)
	}

	// After the query commits, the insert proceeds.
	tbl.ReleaseAll(o2.Txn)
	if c := tbl.Acquire(o1, ureqs); c != nil {
		t.Fatalf("insert still blocked after release: %v", c)
	}
}

func TestNilNodeRequestIgnored(t *testing.T) {
	g := guide(t)
	tbl := NewTable(g)
	o := owner(1, 1, 0)
	if c := tbl.Acquire(o, []Request{{Node: nil, Mode: ST}}); c != nil {
		t.Fatal(c)
	}
	if tbl.GrantCount() != 0 {
		t.Fatal("nil request granted")
	}
}
