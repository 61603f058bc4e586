package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"detectable/internal/durable"
	"detectable/internal/server"
)

// interval is a half-open time range in recorder nanoseconds.
type interval struct{ start, end int64 }

// union sorts iv and merges what overlaps, returning disjoint intervals in
// order.
func union(iv []interval) []interval {
	slices.SortFunc(iv, func(a, b interval) int { return int(a.start - b.start) })
	out := iv[:0]
	for _, x := range iv {
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, x.end)
		} else {
			out = append(out, x)
		}
	}
	return out
}

// covered returns how much of [start, end) the disjoint sorted set covers.
func covered(set []interval, start, end int64) int64 {
	i := sort.Search(len(set), func(i int) bool { return set[i].end > start })
	var sum int64
	for ; i < len(set) && set[i].start < end; i++ {
		sum += min(set[i].end, end) - max(set[i].start, start)
	}
	return sum
}

func total(set []interval) int64 {
	var sum int64
	for _, x := range set {
		sum += x.end - x.start
	}
	return sum
}

// fsMetrics derives the fs layer's metrics from the spans of the slices in
// which the recorder was on, recorded long in all. "put" in their names is
// one acked mutating request, PUT or MPUT.
func fsMetrics(ms *metricSet, t *traffic, p *phases, rec *recorder, recorded time.Duration) {
	spans, _ := rec.recorded()
	var (
		syncs       [2][]interval // by node
		syncDur     [2][]int64
		bytes       int64
		writes      int
		syncdirs    int
		compactions int
		userBytes   int64
		muts        float64
	)
	for _, s := range spans {
		switch s.Kind {
		case spanFsSync:
			syncs[s.Node] = append(syncs[s.Node], interval{s.Start, s.End})
			syncDur[s.Node] = append(syncDur[s.Node], s.End-s.Start)
		case spanFsWrite:
			if s.Node == 0 {
				bytes += s.Bytes
				writes++
			}
		case spanFsSyncDir:
			if s.Node == 0 {
				syncdirs++
			}
		case spanFsRename:
			if s.Node == 0 && s.Class == classSnap {
				compactions++
			}
		}
	}
	for _, w := range t.workers {
		userBytes += w.userBytes
	}
	for i := 1; i <= p.slices(); i++ {
		if p.spans[i] {
			muts += float64(t.mutations(i))
		}
	}
	if muts == 0 {
		return
	}
	slices.Sort(syncDur[0])
	ms.set("fs.fsyncs_per_put", float64(len(syncDur[0]))/muts, len(syncDur[0]))
	ms.set("fs.fsync_p50_us", percentile(syncDur[0], 0.50)/1e3, len(syncDur[0]))
	ms.set("fs.fsync_p99_us", percentile(syncDur[0], 0.99)/1e3, len(syncDur[0]))
	ms.set("fs.bytes_per_put", float64(bytes)/muts, writes)
	ms.set("fs.writes_per_put", float64(writes)/muts, writes)
	if userBytes > 0 {
		ms.set("fs.write_amp", float64(bytes)/float64(userBytes), writes)
	}
	ms.set("fs.syncdirs", float64(syncdirs), 0)
	ms.set("fs.compactions", float64(compactions), 0)

	primary := union(syncs[0])
	ms.set("fs.fsync_busy_share", float64(total(primary))/float64(recorded), len(primary))
	if len(syncDur[1]) > 0 {
		slices.Sort(syncDur[1])
		ms.set("fs.standby_fsyncs_per_put", float64(len(syncDur[1]))/muts, len(syncDur[1]))
		ms.set("fs.standby_fsync_p50_us", percentile(syncDur[1], 0.50)/1e3, len(syncDur[1]))
		var overlap, standby int64
		for _, s := range syncs[1] {
			overlap += covered(primary, s.start, s.end)
			standby += s.end - s.start
		}
		ms.set("fs.fsync_overlap_share", float64(overlap)/float64(standby), len(syncs[1]))
	}

	// A PUT's self time: its span minus the part some fsync, on either
	// node, covers.
	anySync := union(append(append([]interval(nil), primary...), syncs[1]...))
	var self []int64
	for _, w := range t.workers {
		for _, s := range w.spans {
			if s.Kind == spanPut {
				self = append(self, s.End-s.Start-covered(anySync, s.Start, s.End))
			}
		}
	}
	slices.Sort(self)
	ms.set("trace.put_self_p50_us", percentile(self, 0.50)/1e3, len(self))
}

// crashImageCheck is check (4). The page cache survives a killed process,
// so the check discards unsynced bytes itself: it copies each node's data
// directory with every file cut to its length at its last Sync, opens the
// copy as a restart would, and requires every key to hold an acceptable
// value — the last acked write of one of its writers.
func crashImageCheck(cfg runConfig, st *stack, t *traffic, ms *metricSet) (violations int, err error) {
	for i, n := range []*node{st.primary, st.standby} {
		if n == nil || n.trace == nil {
			continue
		}
		image, err := os.MkdirTemp(cfg.tmpRoot, "image-")
		if err != nil {
			return violations, err
		}
		defer os.RemoveAll(image)
		for name, length := range n.trace.syncedLengths(n.dir) {
			if err := copyPrefix(filepath.Join(n.dir, name), filepath.Join(image, name), length); err != nil {
				return violations, err
			}
		}
		start := time.Now()
		db, err := durable.Open(image, numShards, numProcs, server.Window)
		if err != nil {
			violations++ // recovery must never fail on a crash image
			continue
		}
		recoverMs := float64(time.Since(start)) / 1e6
		recovered := make(map[string]int, len(t.keys))
		for shard := 0; shard < numShards; shard++ {
			db.RangeShard(shard, func(key string, val int64) { recovered[key] = int(val) })
		}
		records := len(recovered)
		for _, sess := range db.Sessions() {
			records += len(sess.Window)
		}
		if err := db.Close(); err != nil {
			return violations, err
		}
		if i == 0 {
			ms.set("durable.recover_ms", recoverMs, 0)
			ms.set("durable.recover_records", float64(records), 0)
		}
		for k, key := range t.keys {
			if !t.acceptable(k, recovered[key]) {
				violations++
			}
		}
	}
	return violations, nil
}

// copyPrefix copies the first length bytes of src (fewer if it is shorter)
// to dst.
func copyPrefix(src, dst string, length int64) error {
	in, err := os.Open(src)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // removed since it was synced, e.g. a compaction's temp file
		}
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, length); err != nil && err != io.EOF {
		out.Close()
		return err
	}
	return out.Close()
}

// maxClientSpansWritten caps the client spans of one connection in the
// trace file: mem-get makes a million of them, and the metrics are computed
// from memory, not from the file.
const maxClientSpansWritten = 20000

// writeTrace writes the run's spans to <out>/<workload>.trace.json.
func writeTrace(cfg runConfig, t *traffic, rec *recorder) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.outDir, cfg.spec.Name+".trace.json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fsSpans, dropped := rec.recorded()
	clientTotal := 0
	for _, wk := range t.workers {
		clientTotal += len(wk.spans) + wk.spanDropped
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"origin\":%q,\"fs_spans_dropped\":%d,\"client_spans_total\":%d,\"client_spans_cap_per_conn\":%d,\n\"spans\":[\n",
		cfg.spec.Name, cfg.seed, rec.origin.UTC().Format(time.RFC3339Nano), dropped, clientTotal, maxClientSpansWritten)
	sep := ""
	for _, wk := range t.workers {
		for _, s := range wk.spans[:min(len(wk.spans), maxClientSpansWritten)] {
			fmt.Fprintf(w, "%s{\"name\":%q,\"conn\":%d,\"id\":%d,\"start_ns\":%d,\"end_ns\":%d,\"bytes\":%d}",
				sep, spanNames[s.Kind], s.Node, s.ID, s.Start, s.End, s.Bytes)
			sep = ",\n"
		}
	}
	nodes := [...]string{"primary", "standby"}
	for _, s := range fsSpans {
		fmt.Fprintf(w, "%s{\"name\":%q,\"node\":%q,\"class\":%q,\"start_ns\":%d,\"end_ns\":%d,\"bytes\":%d}",
			sep, spanNames[s.Kind], nodes[s.Node], classNames[s.Class], s.Start, s.End, s.Bytes)
		sep = ",\n"
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
