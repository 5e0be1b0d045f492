package main

import (
	"runtime"
	"sync"

	"repro/freq"
	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/sharded"
)

// replica mirrors one freqd summary's geometry in-process, so the traced
// run can time each layer on the very inputs the daemon acknowledged.
// The freq layer is replayed through a Concurrent and a Writer, as a
// daemon connection runs them; the sharded and core layers are replayed
// separately, as the sharded router's partition of each frame applied to
// one core sketch per shard. One goroutine may call ingest while others
// read.
type replica struct {
	tr    *tracer
	mu    sync.Mutex // serializes ingest; the daemon's writers run concurrently, the replay does not
	fc    *freq.Concurrent[int64]
	fw    *freq.Writer[int64]
	route *sharded.Sketch // shard routing only; never updated
	cores []*core.Sketch
	parts [][]hashmap.Pair
	pairs []freq.Pair[int64]
}

func newReplica(tr *tracer, k, shards int) (*replica, error) {
	fc, err := freq.NewConcurrent[int64](k, freq.WithShards(shards))
	if err != nil {
		return nil, err
	}
	fw, err := freq.NewWriter(fc)
	if err != nil {
		return nil, err
	}
	n := sharded.NumShardsFor(shards)
	route, err := sharded.New(k, n)
	if err != nil {
		return nil, err
	}
	rp := &replica{tr: tr, fc: fc, fw: fw, route: route, parts: make([][]hashmap.Pair, n)}
	for range n {
		c, err := core.New(max(k/n, core.MinCounters))
		if err != nil {
			return nil, err
		}
		rp.cores = append(rp.cores, c)
	}
	return rp, nil
}

// warm replays frames without spans, so the replica's tables are as
// full as a daemon's that has run for a while.
func (rp *replica) warm(frames []frame) {
	for _, f := range frames {
		rp.apply(f.items, f.weights)
		rp.partition(f.items, f.weights)
		for j, c := range rp.cores {
			_ = c.UpdatePairs(rp.parts[j])
		}
	}
}

func (rp *replica) apply(items, weights []int64) {
	rp.pairs = rp.pairs[:0]
	for i := range items {
		rp.pairs = append(rp.pairs, freq.Pair[int64]{Item: items[i], Weight: weights[i]})
	}
	_ = rp.fw.AddPairs(rp.pairs)
	_ = rp.fw.Flush()
}

// partition splits a frame by shard and returns max/mean shard share.
func (rp *replica) partition(items, weights []int64) float64 {
	for j := range rp.parts {
		rp.parts[j] = rp.parts[j][:0]
	}
	for i, it := range items {
		j := rp.route.ShardIndex(it)
		rp.parts[j] = append(rp.parts[j], hashmap.Pair{Key: it, Value: weights[i]})
	}
	biggest := 0
	for _, p := range rp.parts {
		biggest = max(biggest, len(p))
	}
	return float64(biggest) * float64(len(rp.parts)) / float64(max(len(items), 1))
}

// ingest replays one acknowledged frame under the op's wire span.
func (rp *replica) ingest(parent uint64, items, weights []int64) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	n := float64(len(items))
	rp.tr.span("freq.writer", parent, func(uint64) { rp.apply(items, weights) })
	rp.tr.add("freq.writer.items", n)
	rp.tr.span("sharded.partition", parent, func(id uint64) {
		rp.tr.add("sharded.skew", rp.partition(items, weights))
		var before, after int64
		for _, c := range rp.cores {
			before += c.DecrementCount()
		}
		rp.tr.span("core.update_pairs", id, func(uint64) {
			for j, c := range rp.cores {
				_ = c.UpdatePairs(rp.parts[j])
			}
		})
		for _, c := range rp.cores {
			after += c.DecrementCount()
		}
		rp.tr.add("core.decrements", float64(after-before))
		rp.tr.add("core.items", n)
	})
}

// view builds (or reuses) the freq layer's merged read view.
func (rp *replica) view(parent uint64) *freq.View[int64] {
	var v *freq.View[int64]
	before := rp.fc.ViewMerges()
	rp.tr.span("freq.view", parent, func(uint64) { v, _ = rp.fc.View() })
	rp.tr.add("freq.view.merges", float64(rp.fc.ViewMerges()-before))
	rp.tr.add("freq.view.reads", 1)
	return v
}

func (rp *replica) topk(parent uint64, n int) {
	v := rp.view(parent)
	if v != nil {
		rp.tr.span("freq.topk", parent, func(uint64) { v.TopK(n) })
	}
}

func (rp *replica) fi(parent uint64, threshold int64) {
	v := rp.view(parent)
	if v != nil {
		rp.tr.span("freq.fi", parent, func(uint64) { v.FrequentItemsAboveThreshold(threshold, freq.NoFalsePositives) })
	}
}

func (rp *replica) est(parent uint64, item int64) {
	rp.tr.span("freq.estimate", parent, func(uint64) { rp.fc.Estimate(item) })
}

// allocsPerCall returns fn's mean heap allocations and bytes per call.
// The generator must be quiescent: the counts are process-wide.
func allocsPerCall(n int, fn func()) (allocs, bytes float64) {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for range n {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}
