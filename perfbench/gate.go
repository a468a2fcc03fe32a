package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	dtx "repro"
	"repro/internal/xmltree"
)

// quiesceTimeout bounds how long followers may take to catch up once the
// clients have stopped.
const quiesceTimeout = 10 * time.Second

// quiesce drains the persist pipelines and waits until no follower reports
// itself behind and, with compare set, every replica of every document
// serializes to the same bytes. It returns the converged XML per document.
func quiesce(e *env, compare bool) (map[string]string, error) {
	e.c.Sync()
	deadline := time.Now().Add(quiesceTimeout)
	for {
		var xmls map[string]string
		var diverged string
		if compare {
			var err error
			if xmls, diverged, err = replicaXML(e); err != nil {
				return nil, err
			}
		}
		behind := recordsBehind(e.c)
		if diverged == "" && behind == 0 {
			return xmls, nil
		}
		if time.Now().After(deadline) {
			if diverged == "" {
				diverged = fmt.Sprintf("%.0f replication records still behind", behind)
			}
			return nil, fmt.Errorf("replicas did not converge within %v: %s", quiesceTimeout, diverged)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// replicaXML reads every replica of every document and reports the first
// pair that differs.
func replicaXML(e *env) (map[string]string, string, error) {
	out := map[string]string{}
	diverged := ""
	for _, d := range e.docs {
		for _, site := range e.c.SitesOf(d.name) {
			xml, err := e.c.DocumentXML(site, d.name)
			if err != nil {
				return nil, "", err
			}
			first, seen := out[d.name]
			if !seen {
				out[d.name] = xml
			} else if xml != first && diverged == "" {
				diverged = fmt.Sprintf("%s differs at site %d (%d bytes) from site %d (%d bytes)",
					d.name, site, len(xml), e.c.SitesOf(d.name)[0], len(first))
			}
		}
	}
	return out, diverged, nil
}

// recordsBehind sums the dtx_repl_behind_records gauge over every site.
func recordsBehind(c *dtx.Cluster) float64 {
	var total float64
	for site := 0; site < c.Sites(); site++ {
		reg, err := c.Metrics(site)
		if err != nil {
			continue
		}
		total += sumGauge(reg.Text(), "dtx_repl_behind_records")
	}
	return total
}

// sumGauge adds up every sample of one metric family in a text exposition.
func sumGauge(text, name string) float64 {
	var total float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// gate is the correctness check after a timed phase: the cluster quiesces
// with all replicas byte-identical, every client's last committed writes
// read back from every replica's final state, and the queries known to
// match return results through the API.
func gate(e *env, ph *phase) error {
	xmls, err := quiesce(e, true)
	if err != nil {
		return err
	}
	trees := map[string]*xmltree.Document{}
	for name, xml := range xmls {
		if trees[name], err = xmltree.ParseString(name, xml); err != nil {
			return fmt.Errorf("replica of %s does not parse: %w", name, err)
		}
	}
	doc := func(name string) *xmltree.Document { return trees[name] }
	for i, cl := range ph.clients {
		var peers []client
		for j, p := range ph.clients {
			if j != i {
				peers = append(peers, p)
			}
		}
		if err := cl.readback(doc, peers); err != nil {
			return err
		}
	}
	if ph.committedOf(kindWrite) == 0 {
		// Nothing wrote: every replica must still be the generated document.
		for _, d := range e.docs {
			if sha256.Sum256([]byte(xmls[d.name])) != d.hash {
				return fmt.Errorf("%s changed without a writer", d.name)
			}
		}
	}
	for _, d := range e.docs {
		for _, s := range d.sections {
			ids := d.ids[s]
			if len(ids) == 0 {
				continue
			}
			q := predicateQuery(s, ids[len(ids)/2])
			res, err := e.c.Submit(0, dtx.Query(d.name, q))
			if err != nil {
				return fmt.Errorf("final read %s %s: %w", d.name, q, err)
			}
			if len(res.Results) != 1 || len(res.Results[0]) == 0 {
				return fmt.Errorf("final read %s %s matched nothing", d.name, q)
			}
		}
	}
	if n := ph.mismatches(); n > 0 {
		return fmt.Errorf("%d query results differed from their expectation; first: %s", n, ph.firstMismatch())
	}
	if n := ph.failedTxns(); n > 0 {
		return fmt.Errorf("%d transactions failed; first: %s", n, ph.firstMismatch())
	}
	return nil
}

// liveHeapMB forces a collection at the quiescent point after the gate and
// reads the live heap. The benchmark's own inputs are dropped first, so the
// figure is the cluster's.
func liveHeapMB(e *env) float64 {
	e.c.Sync()
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
