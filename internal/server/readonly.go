package server

// Read-only (GET-only) sessions — the serving half of the read-replica
// design (docs/REPLICATION.md §read replicas).
//
// A read-only session leases no process slot and is admitted to reads and
// the always-served ops only (the read-only column of admit.go's table).
// That restriction is exactly what lets a standby serve it: the paper's
// detectability guarantees attach to mutations — each needs a definite,
// durable, exactly-once verdict — while a read carries no outcome window
// and no recovery obligation. A read answered
// from the replica's barrier-consistent applied view is bounded-stale but
// can never be a phantom (every value in the view was journaled, hence
// linearized, on the primary) and never a resurrected failed write (a
// failed mutation journals nothing).
//
// Reads are served from committed state by node role:
//
//   - standby: durable.DB.ViewGet — the applied view published whole
//     barriers at a time, so a GET observes a prefix of the primary's
//     commit order, never a mid-snapshot or mid-epoch state
//   - primary: the live store (Peek), the same visibility a sloted GET has

import "detectable/internal/shardkv"

// readKey resolves key against this node's committed state. Missing keys
// read as zero, the durable-root convention shared with kv.Store.
func (srv *Server) readKey(key string) int {
	if st := srv.standby.Load(); st != nil {
		val, ok := st.db.ViewGet(shardkv.ShardIndex(key, st.db.NumShards()), key)
		if ok || srv.standby.Load() != nil {
			return int(val)
		}
		// Promoted under this read: promotion dropped the view after
		// installing the store, so the miss says nothing — read the store.
	}
	if store := srv.store.Load(); store != nil {
		return store.Peek(key)
	}
	return 0
}
