package main

import (
	"fmt"
	"time"

	"repro/freq/server"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/streamgen"
)

// Fleet inputs: the Fig. 4 stream (Zipf α=1.05, weights 1..10000) over
// 2^20 keys. Its first fleetPreload updates alternate between the two
// nodes at set-up, so the nodes' key sets overlap heavily; the rest is
// the pool of frames sent during the run.
//
// Each node runs k = 8192 (a third of the default) so a refresh costs a
// few milliseconds and a run collects well over a thousand of them.
const (
	fleetK        = 8192
	fleetUniverse = 1 << 20
	fleetPreload  = 1 << 21
	fleetPool     = 1 << 20
)

var fleetArgs = []string{"-k", fmt.Sprint(fleetK), "-shards", fmt.Sprint(defaultShards)}

// runFleet: two daemons preloaded with overlapping Zipf streams, one
// Cluster over the same two clients, and a closed loop of one frame to
// each node, then Refresh and TopK(64). The fleet's query is that
// Refresh plus TopK: a top-64 over the whole fleet.
func runFleet(r *run) error {
	stream, err := streamgen.ZipfStream(1.05, fleetUniverse, fleetPreload+fleetPool, 10000, genSeed(r.cfg.seed, 1))
	if err != nil {
		return err
	}
	var preload [2][]streamgen.Update
	for i, u := range stream[:fleetPreload] {
		preload[i%2] = append(preload[i%2], u)
	}
	preFrames := [2][]frame{framesOf(preload[0], frameSize), framesOf(preload[1], frameSize)}
	pool := framesOf(stream[fleetPreload:], frameSize)

	err = r.setUp(func(int) ([]*daemon, error) {
		var ds []*daemon
		for n := range 2 {
			d, err := startDaemon(r.cfg.freqd, fleetArgs)
			if err != nil {
				return ds, err
			}
			ds = append(ds, d)
			if err := preloadNode(d.addr, preFrames[n]); err != nil {
				return ds, err
			}
		}
		return ds, nil
	})
	if err != nil {
		return err
	}

	var rps [2]*replica
	if r.tr != nil {
		for n := range 2 {
			if rps[n], err = newReplica(r.tr, fleetK, defaultShards); err != nil {
				return err
			}
			rps[n].warm(preFrames[n])
		}
	}
	var ws [2]*worker
	var cls [2]*clientT
	for n := range 2 {
		ws[n] = r.newWorker(false)
		if cls[n], err = r.dial(r.daemons[n].addr, ws[n]); err != nil {
			return err
		}
	}
	ws[1].lastDone = ws[0].lastDone // one loop drives both
	// The cluster shares the clients; r.close closes them.
	cluster, err := server.NewCluster([]*clientT{cls[0], cls[1]})
	if err != nil {
		return err
	}
	acks := [2][]int64{make([]int64, len(pool)), make([]int64, len(pool))}
	// The slowest node's latency of each refresh, by completion time.
	var slowest []struct {
		at time.Time
		ms float64
	}
	var snapBytes, refreshes, degraded int64
	loop := func() {
		for i := 0; r.running(); i++ {
			for n := range 2 {
				fi := (2*i + n) % len(pool)
				f := pool[fi]
				id, err := ws[n].do("pairs", time.Time{}, len(f.items), func() error {
					return cls[n].UpdateBatch(f.items, f.weights)
				})
				if err == nil {
					acks[n][fi]++
				}
				if id != 0 {
					rps[n].ingest(id, f.items, f.weights)
				}
			}
			id, err := ws[0].do("refresh", time.Time{}, 0, func() error {
				if err := cluster.Refresh(); err != nil {
					return err
				}
				return checkRows(cluster.TopK(64))
			})
			if err != nil {
				continue
			}
			m := cluster.Manifest()
			var worst time.Duration
			for _, ns := range m.Nodes {
				worst = max(worst, ns.Latency)
				snapBytes += int64(ns.SnapshotBytes)
			}
			refreshes++
			if m.Degraded() {
				degraded++
			}
			slowest = append(slowest, struct {
				at time.Time
				ms float64
			}{time.Now(), worst.Seconds() * 1e3})
			if id != 0 {
				replayRefresh(r.tr, id, rps[:])
			}
		}
	}
	if err := r.measure(loop); err != nil {
		return err
	}
	var slowestMs []float64
	for _, s := range slowest {
		if !s.at.Before(r.start) && s.at.Before(r.mid) && r.counted(s.at, s.at) {
			slowestMs = append(slowestMs, s.ms)
		}
	}
	r.metrics["cluster.slowest_node_p50_ms"] = median(slowestMs)
	r.metrics["cluster.snap_bytes_per_node"] = ratio(float64(snapBytes), float64(2*refreshes))
	r.metrics["cluster.degraded_refreshes"] = float64(degraded)

	// Oracle: each node holds its preload plus its acknowledged frames,
	// and the merged view's weight is the sum over both nodes.
	ex := exact.New()
	var total int64
	for n := range 2 {
		nodeEx := exact.New()
		addFrames(nodeEx, preFrames[n], ones(len(preFrames[n])))
		addFrames(nodeEx, pool, acks[n])
		addFrames(ex, preFrames[n], ones(len(preFrames[n])))
		addFrames(ex, pool, acks[n])
		got, _, err := cls[n].Stats()
		if err != nil {
			return err
		}
		r.oracle.weight(fmt.Sprintf("fleet: node %d", n), got, nodeEx.StreamWeight())
		total += got
	}
	if err := cluster.Refresh(); err != nil {
		return err
	}
	view, err := cluster.View()
	if err != nil {
		return err
	}
	r.oracle.weight("fleet: merged view vs nodes", view.StreamWeight(), total)
	r.oracle.weight("fleet: merged view vs acknowledged", view.StreamWeight(), ex.StreamWeight())
	r.oracle.bounds("fleet: merged view", view, ex, r.cfg.seed)
	r.metrics["max_error_ratio"] = ratio(float64(view.MaximumError()), float64(view.StreamWeight()))
	return r.finish([]string{"pairs"}, []string{"refresh"})
}

// preloadNode sends frames to addr over a set-up connection.
func preloadNode(addr string, frames []frame) error {
	c, err := server.Dial[int64](addr, server.WithBinary(), server.WithIOTimeout(20*time.Second))
	if err != nil {
		return err
	}
	defer c.Close()
	for _, f := range frames {
		if err := c.UpdateBatch(f.items, f.weights); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// replayRefresh replays one fleet refresh in-process: each node's view
// build (the server side of SNAP), then the core layer's serialization
// of every shard summary, its decoding at the coordinator, and the
// coordinator merge.
func replayRefresh(tr *tracer, parent uint64, rps []*replica) {
	for _, rp := range rps {
		rp.mu.Lock()
		rp.view(parent)
		rp.mu.Unlock()
	}
	var blobs [][]byte
	tr.span("core.serialize", parent, func(uint64) {
		for _, rp := range rps {
			for _, c := range rp.cores {
				blobs = append(blobs, c.AppendTo(nil))
			}
		}
	})
	var sks []*core.Sketch
	tr.span("core.deserialize", parent, func(uint64) {
		for _, b := range blobs {
			if sk, err := core.Deserialize(b); err == nil {
				sks = append(sks, sk)
			}
		}
	})
	tr.span("core.merge", parent, func(uint64) {
		total := 0
		for _, sk := range sks {
			total += sk.MaxCounters()
		}
		merged, err := core.NewWithOptions(core.Options{MaxCounters: total, DisableGrowth: true})
		if err != nil {
			return
		}
		for _, sk := range sks {
			merged.Merge(sk)
		}
	})
}
