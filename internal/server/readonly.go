package server

// Read-only (GET-only) sessions — the serving half of the read-replica
// design (docs/REPLICATION.md §read replicas).
//
// A read-only session leases no process slot and is admitted to reads and
// the always-served ops only (the read-only column of admit.go's table).
// That restriction is exactly what lets a standby serve it: the paper's
// detectability guarantees attach to mutations — each needs a definite,
// durable, exactly-once verdict — while a read carries no outcome window
// and no recovery obligation. A read answered from a barrier-consistent
// applied view is bounded-stale but
// can never be a phantom (every value in the view was journaled, hence
// linearized, on the primary) and never a resurrected failed write (a
// failed mutation journals nothing).
//
// Every read on a node with a durable DB — any session's, on any role —
// is served from that DB's applied view (durable.DB.ViewGet), published
// whole epochs at a time once they are durable on every node that gates
// them: a prefix of the log in log order, never a value a crash can roll
// back. Promotion keeps the view. A node without a DB reads its live
// store, which its crash loses whole.

import "detectable/internal/shardkv"

// readKey resolves sess's GET of key against this node's committed state.
// Missing keys read as zero, the durable-root convention shared with
// kv.Store. A data session's read counts in its shard's stats, as the
// detectable Read it stands in for would.
func (srv *Server) readKey(sess *session, key string) int {
	if sess.kind == kindData {
		srv.store.Load().NoteGet(sess.pid, key)
	}
	db := srv.db.Load()
	if st := srv.standby.Load(); st != nil {
		db = st.db // promotion installs this same DB as srv.db
	}
	if db == nil {
		return srv.store.Load().Peek(key)
	}
	val, _ := db.ViewGet(shardkv.ShardIndex(key, db.NumShards()), key)
	return int(val)
}
