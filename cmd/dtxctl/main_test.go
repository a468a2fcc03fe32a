package main

import (
	"strings"
	"testing"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

func TestParseOpQuery(t *testing.T) {
	op, err := parseOp("query d1 //person[id='4']/name")
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != txn.OpQuery || op.Doc != "d1" || op.Query != "//person[id='4']/name" {
		t.Fatalf("op = %+v", op)
	}
}

func TestParseOpInsert(t *testing.T) {
	op, err := parseOp("insert d2 /products into <product><id>13</id><price>10.30</price></product>")
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != txn.OpUpdate || op.Update.Kind != xupdate.Insert {
		t.Fatalf("op = %+v", op)
	}
	if op.Update.Pos != xmltree.Into || op.Update.Target != "/products" {
		t.Fatalf("update = %+v", op.Update)
	}
	if op.Update.New.Name != "product" || len(op.Update.New.Children) != 2 {
		t.Fatalf("spec = %+v", op.Update.New)
	}
	if op.Update.New.Children[1].Text != "10.30" {
		t.Fatal("nested text lost")
	}
	for _, pos := range []string{"before", "after"} {
		if _, err := parseOp("insert d /x " + pos + " <y/>"); err != nil {
			t.Errorf("pos %s rejected: %v", pos, err)
		}
	}
}

func TestParseOpOthers(t *testing.T) {
	cases := []struct {
		spec string
		kind xupdate.Kind
	}{
		{"remove d1 //person[id='9']", xupdate.Remove},
		{"rename d1 //person/name label", xupdate.Rename},
		{"change d1 //person[id='4']/name Maria Clara", xupdate.Change},
		{"transpose d2 //product[1] //product[2]", xupdate.Transpose},
	}
	for _, c := range cases {
		op, err := parseOp(c.spec)
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if op.Kind != txn.OpUpdate || op.Update.Kind != c.kind {
			t.Errorf("%q parsed as %+v", c.spec, op)
		}
	}
	// Multi-word change value joins with spaces.
	op, _ := parseOp("change d1 //x Maria Clara")
	if op.Update.Value != "Maria Clara" {
		t.Fatalf("value = %q", op.Update.Value)
	}
}

func TestParseOpErrors(t *testing.T) {
	bad := []string{
		"",
		"query d1",                    // too short
		"fly d1 /x",                   // unknown kind
		"insert d1 /x sideways <y/>",  // bad position
		"insert d1 /x into <unclosed", // bad xml
		"insert d1 /x",                // missing parts
		"rename d1 /x",                // missing new name
		"change d1 /x",                // missing value
		"transpose d1 /x",             // missing second path
	}
	for _, spec := range bad {
		if _, err := parseOp(spec); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}

func TestParseSpecAttrs(t *testing.T) {
	spec, err := parseSpec(`<person vip="yes"><id>1</id></person>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Attrs) != 1 || spec.Attrs[0].Name != "vip" {
		t.Fatalf("attrs = %v", spec.Attrs)
	}
}

// TestWriteStatusProtocolOncePerSite checks the status view prints the
// site's static lock protocol in the banner and not per document.
func TestWriteStatusProtocolOncePerSite(t *testing.T) {
	var buf strings.Builder
	writeStatus(&buf, transport.SiteStatusResp{
		Site:     1,
		Ready:    true,
		Protocol: "node2pl",
		Docs: []transport.DocStatus{
			{Name: "d1", Primary: 1, Role: "primary", Head: 7},
			{Name: "d2", Primary: 0, Role: "replica", Applied: 3, Head: 5, Behind: 2},
		},
	})
	out := buf.String()
	if !strings.HasPrefix(out, "site 1: serving, protocol node2pl\n") {
		t.Fatalf("banner missing protocol:\n%s", out)
	}
	if n := strings.Count(out, "node2pl"); n != 1 {
		t.Fatalf("protocol printed %d times, want once:\n%s", n, out)
	}
	for _, want := range []string{"  d1: primary, head 7\n", "  d2: replica of site 0, applied 3, 2 record(s) behind head 5\n", "in-doubt: none\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
