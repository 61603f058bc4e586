// Package detectable is a Go reproduction of "Upper and Lower Bounds on the
// Space Complexity of Detectable Objects" (Ben-Baruch, Hendler, Rusanovsky,
// PODC 2020), grown into a small system around the paper's algorithms.
//
// It provides recoverable, detectable concurrent objects running on a
// simulated non-volatile-memory (NVM) substrate with system-wide
// crash-failures:
//
//   - Register — the paper's Algorithm 1: the first wait-free
//     bounded-space detectable read/write register.
//   - CAS — the paper's Algorithm 2: the first wait-free bounded-space
//     detectable compare-and-swap, using Θ(N) bits beyond the value
//     (asymptotically optimal by Theorem 1).
//   - MaxRegister — the paper's Algorithm 3: recoverable with no auxiliary
//     state at all (possible because max registers are not
//     doubly-perturbing, Lemma 4).
//   - Queue, Counter, FetchAdd, KV — detectable data structures composed
//     from the primitives, with exactly-once retry semantics.
//
// Above the single-object layer, internal/shardkv partitions a detectable
// key-value store into independent failure domains, and internal/server +
// internal/client serve it over TCP while preserving detectability across
// the network boundary: a dropped connection plays the role of a crash,
// and a reconnecting session recovers the original verdict of its
// interrupted operation (cmd/kvserverd, cmd/loadgen -remote).
//
// # Detectability
//
// Every operation returns an Outcome. When the simulated system crashes
// mid-operation, the operation's recovery function runs and determines
// whether the operation was linearized: Outcome.Linearized true carries the
// operation's response; false means the operation definitely took no effect
// and can safely be re-invoked. This is the paper's detectability
// condition, strictly stronger than durable linearizability.
//
// # Crash simulation
//
// A System owns the simulated NVM and N process identities. System.Crash
// injects a system-wide crash-failure: every in-flight operation loses its
// volatile state and falls into its recovery function. Deterministic
// injection for tests and demos is available through CrashAtStep.
//
// See ARCHITECTURE.md for the layer map and the paper-concept → Go-type
// table, and docs/PROTOCOL.md for the wire protocol.
package detectable
