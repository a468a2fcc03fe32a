// Package mvcc maintains per-document version chains for snapshot reads:
// immutable committed trees stamped with a site-local commit timestamp, a
// pin protocol that keeps a version alive while read-only transactions use
// it, and a bounded GC that retires versions nobody pins.
//
// The chain decouples commit from materialisation. A writer's commit calls
// Advance — an O(1) bump of the chain's commit timestamp that marks the head
// version stale — and the next actor to need a committed tree (a reader, or
// the next writer before its first change) publishes a fresh snapshot. That
// keeps the write path free of deep copies while readers always see a
// committed prefix of the document's history.
package mvcc

import (
	"sync"

	"repro/internal/txn"
	"repro/internal/vindex"
	"repro/internal/xmltree"
)

// Version is one committed state of a document. The tree is immutable: it is
// produced by xmltree.Document.Snapshot and never mutated afterwards, so any
// number of readers may evaluate queries against it without locks.
type Version struct {
	// TS is the commit timestamp the version was published at. Every commit
	// that the version reflects has a timestamp ≤ TS.
	TS txn.TS
	// Doc is the immutable committed tree.
	Doc *xmltree.Document

	pins int

	// idx is the version's value index, built lazily by the first indexable
	// snapshot read pinned to this version and immutable afterwards — it is
	// derived solely from the immutable tree, so it is consistent with this
	// version (and stamped by its TS) by construction, no matter how far the
	// live index has advanced.
	idxOnce sync.Once
	idx     *vindex.DocIndex
}

// ValueIndex returns the version's snapshot value index, building it on
// first use from keys() — the live index's enabled-key set at build time.
// Keys enabled after the build are simply absent: reads probing them fall
// back to scanning this version, never to the live index. Safe for
// concurrent use by lock-free readers.
func (v *Version) ValueIndex(keys func() []string) *vindex.DocIndex {
	v.idxOnce.Do(func() {
		v.idx = vindex.BuildDocIndex(v.Doc, keys())
	})
	return v.idx
}

// Options tunes a chain. The zero value is usable.
type Options struct {
	// MaxVersions bounds the number of unpinned versions retained (default
	// 4). Pinned versions are always kept, so the real bound is
	// max(MaxVersions, pinned+1): GC never drops a version a reader holds.
	MaxVersions int
}

// DefaultMaxVersions is the retained-version bound when Options.MaxVersions
// is zero.
const DefaultMaxVersions = 4

// Chain is the version chain of one document. All methods are safe for
// concurrent use. The chain's mutex is a leaf lock: no Chain method calls
// out while holding it.
type Chain struct {
	mu       sync.Mutex
	versions []*Version // ascending TS order; versions[len-1] is the head
	// commitTS is the largest commit timestamp any writer has advanced the
	// chain to. When it exceeds the head version's TS, the head is stale:
	// commits have happened that no published version reflects yet.
	commitTS  txn.TS
	maxKeep   int
	reclaimed int64 // versions retired by gcLocked over the chain's lifetime
}

// NewChain builds an empty chain.
func NewChain(opts Options) *Chain {
	keep := opts.MaxVersions
	if keep <= 0 {
		keep = DefaultMaxVersions
	}
	return &Chain{maxKeep: keep}
}

// Publish appends a committed tree stamped ts as the new head. A publish at
// or below the current head's timestamp is dropped (a concurrent publisher
// won the race with a newer tree); the commit timestamp still folds in ts so
// staleness stays monotone. Returns whether the version was installed.
func (c *Chain) Publish(doc *xmltree.Document, ts txn.TS) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts > c.commitTS {
		c.commitTS = ts
	}
	if n := len(c.versions); n > 0 && c.versions[n-1].TS >= ts {
		return false
	}
	c.versions = append(c.versions, &Version{TS: ts, Doc: doc})
	c.gcLocked()
	return true
}

// Advance records that a commit stamped ts has consolidated into the live
// document. O(1): it only moves the commit timestamp, leaving the head
// version stale until someone publishes a newer snapshot.
func (c *Chain) Advance(ts txn.TS) {
	c.mu.Lock()
	if ts > c.commitTS {
		c.commitTS = ts
	}
	c.mu.Unlock()
}

// Stale reports whether the head version (if any) lags the commit timestamp,
// i.e. a fresh snapshot of the live document would observe commits the head
// does not include.
func (c *Chain) Stale() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.versions)
	return n == 0 || c.versions[n-1].TS < c.commitTS
}

// CommitTS returns the chain's commit timestamp.
func (c *Chain) CommitTS() txn.TS {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitTS
}

// Pin returns the newest version with TS ≤ ts, incrementing its pin count,
// or nil when no retained version is old enough (the reader's snapshot has
// been GC'd, or nothing is published yet). Callers must pair every
// successful Pin with exactly one Unpin.
func (c *Chain) Pin(ts txn.TS) *Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].TS <= ts {
			c.versions[i].pins++
			return c.versions[i]
		}
	}
	return nil
}

// Unpin releases a pin taken by Pin and retires versions the release freed.
func (c *Chain) Unpin(v *Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.pins > 0 {
		v.pins--
	}
	c.gcLocked()
}

// Head returns the newest version without pinning it, or nil.
func (c *Chain) Head() *Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.versions); n > 0 {
		return c.versions[n-1]
	}
	return nil
}

// Len returns the number of retained versions.
func (c *Chain) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.versions)
}

// Pinned returns the number of retained versions with at least one live pin.
func (c *Chain) Pinned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.versions {
		if v.pins > 0 {
			n++
		}
	}
	return n
}

// Reclaimed returns how many versions GC has retired over the chain's
// lifetime — a monotonic counter for observability.
func (c *Chain) Reclaimed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reclaimed
}

// gcLocked retires versions: the head is always kept, pinned versions are
// never dropped, and unpinned non-head versions are dropped oldest-first
// while the chain is over its size bound. A pinned version shields only
// itself — unpinned versions published after it are still eligible — so the
// chain stays bounded by maxKeep plus the number of distinct pinned versions
// even under a long reader.
func (c *Chain) gcLocked() {
	if len(c.versions) <= 1 {
		return
	}
	excess := len(c.versions) - c.maxKeep
	out := c.versions[:0]
	last := len(c.versions) - 1
	for i, v := range c.versions {
		if i == last || v.pins > 0 {
			out = append(out, v)
			continue
		}
		if excess > 0 {
			excess--
			continue
		}
		out = append(out, v)
	}
	c.reclaimed += int64(len(c.versions) - len(out))
	for i := len(out); i < len(c.versions); i++ {
		c.versions[i] = nil
	}
	c.versions = out
}
