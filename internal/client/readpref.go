// ReadClient routes GET traffic to read replicas with automatic fallback
// to the primary (docs/REPLICATION.md §read replicas).
//
// The router holds one read-only session (DialReadOnly) against its
// current target — a replica while one is healthy and fresh enough, the
// primary otherwise — plus a lazily-dialed observer probe that tracks
// which node is currently primary. Every lag interval it compares the
// primary's committed barrier sequence against the replica's applied mark
// (ServerStatus.ReplApplied); when the gap exceeds the MaxLag bound — or
// the two nodes report different fencing generations, which makes the
// comparison meaningless — the router falls back to the primary, and
// periodically retries the replicas to move read load back off it.
//
// The staleness contract a ReadClient read carries: bounded-stale, never
// phantom. A replica read may miss the last MaxLag commit epochs, but any
// value it returns was journaled (hence linearized) on the primary, and a
// failed write — which journals nothing — can never surface.
package client

import (
	"fmt"
	"time"

	"detectable/internal/runtime"
	"detectable/internal/server"
)

// lagInterval is how often the router re-checks replication lag (and,
// while fallen back, retries the replicas).
const lagInterval = 50 * time.Millisecond

// ReadClient is a GET-only client preferring read replicas. Like Client it
// is NOT safe for concurrent use: one reader, one operation at a time.
type ReadClient struct {
	primaries []string
	replicas  []string
	maxLag    uint64

	cur       *Client // current read-only session, nil when torn down
	onReplica bool

	probe *Client // observer session pinned to the current primary

	nextCheck time.Time
}

// DialReadPreference opens a read-preferring GET router: reads go to the
// first replica that accepts a read-only session, falling back to the
// primaries when none does (or when the staleness bound trips later).
// maxLag bounds how many commit barriers a replica read may trail the
// primary by; beyond it the router falls back to the primary until the
// replica catches up. 0 disables the staleness check — replicas serve
// regardless of lag.
func DialReadPreference(primaries, replicas []string, maxLag uint64) (*ReadClient, error) {
	if len(primaries) == 0 && len(replicas) == 0 {
		return nil, fmt.Errorf("client: no addresses to dial")
	}
	rc := &ReadClient{primaries: primaries, replicas: replicas, maxLag: maxLag}
	if err := rc.reconnect(); err != nil {
		return nil, err
	}
	return rc, nil
}

// reconnect (re)establishes the read session: replicas first — each must
// also pass the staleness bound before it is trusted — then primaries.
func (rc *ReadClient) reconnect() error {
	rc.dropCur()
	c, err := rc.freshReplica()
	rc.onReplica = c != nil
	for i := 0; c == nil && i < len(rc.primaries); i++ {
		c, err = DialReadOnly(rc.primaries[i])
	}
	if c == nil {
		return err
	}
	rc.cur = c
	rc.nextCheck = time.Now().Add(lagInterval)
	return nil
}

// freshReplica returns a read-only session on the first replica that
// accepts one and passes the staleness bound, or nil and the last error.
func (rc *ReadClient) freshReplica() (*Client, error) {
	var lastErr error
	for _, addr := range rc.replicas {
		c, err := DialReadOnly(addr)
		if err != nil {
			lastErr = err
			continue
		}
		if !rc.freshEnough(c) {
			c.Close() //nolint:errcheck
			lastErr = fmt.Errorf("client: replica %s exceeds the staleness bound", addr)
			continue
		}
		return c, nil
	}
	return nil, lastErr
}

// freshEnough reports whether the target's applied state satisfies the lag
// bound. With no bound set, or no reachable primary to compare against
// (reads must keep flowing while the primary is down mid-failover), every
// target qualifies. A generation mismatch never qualifies: the replica is
// syncing from (or into) a different primary lineage and its applied mark
// is not comparable.
func (rc *ReadClient) freshEnough(c *Client) bool {
	if rc.maxLag == 0 {
		return true
	}
	st, err := c.ServerStats()
	if err != nil {
		return false
	}
	if st.Role == server.RolePrimary {
		return true // promoted under us: it IS the committed state
	}
	pst, ok := rc.primaryStats()
	if !ok {
		return true
	}
	if pst.Generation != st.Generation {
		return false
	}
	return pst.ReplSeq <= st.ReplApplied+rc.maxLag
}

// primaryStats returns the current primary's status, re-discovering which
// node is primary when the cached probe went away or was demoted.
func (rc *ReadClient) primaryStats() (ServerStatus, bool) {
	if rc.probe != nil {
		if st, err := rc.probe.ServerStats(); err == nil && st.Role == server.RolePrimary {
			return st, true
		}
		rc.probe.KillConn()
		rc.probe = nil
	}
	for _, addr := range rc.primaries {
		if st, ok := rc.tryProbe(addr); ok {
			return st, true
		}
	}
	for _, addr := range rc.replicas {
		if st, ok := rc.tryProbe(addr); ok {
			return st, true
		}
	}
	return ServerStatus{}, false
}

func (rc *ReadClient) tryProbe(addr string) (ServerStatus, bool) {
	c, err := DialObserver(addr)
	if err != nil {
		return ServerStatus{}, false
	}
	st, err := c.ServerStats()
	if err == nil && st.Role == server.RolePrimary {
		rc.probe = c
		return st, true
	}
	c.Close() //nolint:errcheck
	return ServerStatus{}, false
}

func (rc *ReadClient) dropCur() {
	if rc.cur != nil {
		rc.cur.KillConn()
		rc.cur = nil
	}
}

// maybeRoute re-checks the routing decision once per lag interval: on a
// replica, fall back to the primary when the staleness bound trips; on the
// primary, try to move back to a fresh replica.
func (rc *ReadClient) maybeRoute() {
	if rc.cur == nil || time.Now().Before(rc.nextCheck) {
		return
	}
	rc.nextCheck = time.Now().Add(lagInterval)
	if rc.onReplica {
		if rc.maxLag == 0 || rc.freshEnough(rc.cur) {
			return
		}
		// Staleness bound exceeded: fall back to the primary.
		rc.reconnect() //nolint:errcheck // next Get retries
		return
	}
	// On the primary: probe the replicas for one that is fresh again.
	if c, _ := rc.freshReplica(); c != nil {
		rc.dropCur()
		rc.cur, rc.onReplica = c, true
	}
}

// Get reads key through the current target, re-routing on failure: a dead
// or refusing target (a replica mid-teardown, a just-fenced primary) costs
// one reconnect sweep, and only if no node at all serves does the error
// surface.
func (rc *ReadClient) Get(key string) (runtime.Outcome[int], error) {
	rc.maybeRoute()
	if rc.cur == nil {
		if err := rc.reconnect(); err != nil {
			return runtime.Outcome[int]{}, err
		}
	}
	out, err := rc.cur.Get(key)
	if err == nil {
		return out, nil
	}
	if rerr := rc.reconnect(); rerr != nil {
		return runtime.Outcome[int]{}, err
	}
	return rc.cur.Get(key)
}

// OnReplica reports whether reads are currently served by a replica.
func (rc *ReadClient) OnReplica() bool { return rc.onReplica }

// Close tears down the read session and the primary probe.
func (rc *ReadClient) Close() error {
	if rc.probe != nil {
		rc.probe.Close() //nolint:errcheck
		rc.probe = nil
	}
	if rc.cur != nil {
		err := rc.cur.Close()
		rc.cur = nil
		return err
	}
	return nil
}
