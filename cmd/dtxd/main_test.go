package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
)

func TestSplitPeer(t *testing.T) {
	id, addr, err := splitPeer("2=host:7072")
	if err != nil || id != 2 || addr != "host:7072" {
		t.Fatalf("got %d %q %v", id, addr, err)
	}
	for _, bad := range []string{"", "noequals", "x=host:1", "=host:1"} {
		if _, _, err := splitPeer(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestSplitPlace(t *testing.T) {
	doc, sites, err := splitPlace("d1=0,1, 2")
	if err != nil || doc != "d1" || len(sites) != 3 || sites[2] != 2 {
		t.Fatalf("got %q %v %v", doc, sites, err)
	}
	for _, bad := range []string{"", "nodoc", "d1=x", "d1=0,y"} {
		if _, _, err := splitPlace(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestMetricsEndpoints drives the exact mux dtxd serves on -metrics-addr:
// a single-site scheduler runs one transaction, then the test scrapes
// /metrics and /healthz over HTTP and checks the exposition carries the
// headline counters and latency histograms.
func TestMetricsEndpoints(t *testing.T) {
	catalog := replica.NewCatalog()
	catalog.Place("d1", 0)
	site := sched.New(sched.Config{
		SiteID:  0,
		Sites:   []int{0},
		Catalog: catalog,
		Store:   store.NewMemStore(),
	})
	defer site.Stop()
	if err := site.AttachNetwork(transport.NewNetwork()); err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString("d1", `<db><person name="ada"/></db>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := site.AddDocument(doc); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(metricsMux(site))
	defer srv.Close()

	// First scrape arms the instrumentation; the transaction after it must
	// land in the histograms.
	if _, err := http.Get(srv.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Submit([]txn.Operation{txn.NewQuery("d1", "//person")}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	site.Sync()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`dtx_txns_committed_total{site="0"} 1`,
		"dtx_ops_executed_total",
		"dtx_lock_wait_seconds_bucket",
		"dtx_op_exec_seconds_count",
		"dtx_2pc_decision_write_seconds_bucket",
		"dtx_persist_save_seconds_bucket",
		`dtx_site_ready{site="0"} 1`,
		`dtx_doc_ops_executed_total{site="0",doc="d1"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The protocol is static per site, so no per-document protocol series.
	for _, gone := range []string{"dtx_doc_protocol_rung", "dtx_protocol_switches_total"} {
		if strings.Contains(text, gone) {
			t.Errorf("/metrics still exposes %q", gone)
		}
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hbody), "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", hresp.StatusCode, hbody)
	}

	presp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", presp.StatusCode)
	}
}

// TestHealthzNotReady checks the probe answers 503 while a site is still
// recovering — the state a restarted dtxd -recover sits in during catch-up.
func TestHealthzNotReady(t *testing.T) {
	site := sched.New(sched.Config{
		SiteID:     0,
		Sites:      []int{0},
		Catalog:    replica.NewCatalog(),
		Store:      store.NewMemStore(),
		Recovering: true,
	})
	defer site.Stop()
	if err := site.AttachNetwork(transport.NewNetwork()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(metricsMux(site))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz on recovering site = %d, want 503", resp.StatusCode)
	}
}
