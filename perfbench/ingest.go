package main

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/freq"
	"repro/internal/exact"
	"repro/internal/streamgen"
	"repro/internal/xrand"
)

// The default daemon geometry, as freqd starts without flags.
const (
	defaultK      = 24576
	defaultShards = 8
	frameSize     = 4096
)

// Rates of the query workload's open loops: ingest well below the
// closed-loop saturation rate, reads well below the rate at which view
// rebuilds saturate a core.
const (
	queryIngestFrames = 200 // frames/s, 0.8M items/s
	queryReads        = 40  // reads/s, in eights: five TOPK 64, one FI, two EST
)

var defaultArgs = []string{"-k", fmt.Sprint(defaultK), "-shards", fmt.Sprint(defaultShards)}

// errBadReply marks a reply that parsed but broke the summary's
// guarantees in a way no concurrent update explains: a TOPK/FI row's
// estimate outside its bounds, rows out of estimate order, or a negative
// bound. Such a reply fails the run.
var errBadReply = errors.New("reply violates the summary's guarantees")

// errTornEst marks an EST reply whose bounds do not bracket its
// estimate. freqd reads the three numbers with three shard reads, so a
// flush from another connection between them can break lb <= est <= ub.
// Each number is still a value of the summary at its own instant, and
// the server does not promise that the three are read at one instant,
// so the op is answered, not failed: such replies are counted in
// server.torn_est_replies.
var errTornEst = errors.New("EST reply's bounds do not bracket its estimate")

// traceFrames is the paper's CAIDA stand-in: 2^20 packets over 2^18
// sources with weights in bits, cut into PAIRS frames. With far more
// sources than counters, the decrement step fires continually.
func traceFrames(seed uint64) ([]frame, error) {
	stream, err := streamgen.PacketTrace(streamgen.TraceConfig{
		Packets: 1 << 20, DistinctSources: 1 << 18, Alpha: 1.1, Seed: genSeed(seed, 0),
	})
	if err != nil {
		return nil, err
	}
	return framesOf(stream, frameSize), nil
}

// probeKeys returns the n heaviest keys of frames then n more drawn
// from the frames, the keys the point queries ask about.
func probeKeys(frames []frame, n int) []int64 {
	ex := exact.New()
	addFrames(ex, frames, ones(len(frames)))
	var keys []int64
	for _, it := range ex.TopK(n) {
		keys = append(keys, it.Item)
	}
	for i := 0; i < n; i++ {
		f := frames[i*7%len(frames)]
		keys = append(keys, f.items[i*131%len(f.items)])
	}
	return keys
}

// genSeed derives a stream generator's seed from the run's seed. The
// streamgen generators seed two SplitMix64 streams with s and s^c. In
// PacketTrace c is SplitMix64's own increment, so for any s with
// s&c == 0 (2 and 8 among the small seeds) the weight stream is the rank
// stream one step on, and each packet's size correlates with the next
// packet's source: the top source's share of the weight rises from 13%
// to 18% and the error ratio halves. Mixing the seed first keeps every
// run seed clear of that.
func genSeed(seed, salt uint64) uint64 { return xrand.Mix64(seed ^ salt) }

func ones(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// startPreloaded returns a set-up that starts one default-geometry
// daemon and sends it every frame once, so the run starts on a summary
// in its steady state.
func (r *run) startPreloaded(frames []frame) func(int) ([]*daemon, error) {
	return func(int) ([]*daemon, error) {
		d, err := startDaemon(r.cfg.freqd, defaultArgs)
		if err != nil {
			return nil, err
		}
		return []*daemon{d}, preloadNode(d.addr, frames)
	}
}

// runIngest: one connection in a closed loop sends PacketTrace frames
// to a default daemon preloaded with the trace. After one frame in
// sixteen it sends an EST probe; which frames is drawn from the seed,
// since a frame fills each of the writer's per-shard buffers about
// half-way and every sixteenth frame would find them nearly as full.
// The probe's latency runs from that frame's send: the time to write a
// frame and read a point estimate back under saturated ingest. EST
// flushes the pairs the connection's writer still buffers, reads one
// shard and builds no view. Its round trip alone
// (server.est_rtt_p50_us) is mostly two wake-ups: under host steal it
// rose by a quarter where the frame and EST together rose by a tenth.
//
// One connection leaves the second core to the generator: with two,
// the rate moved between 18 and 24 M items/s from run to run on a quiet
// 2-core host at constant freqd CPU time, most likely as the
// connections' shard-lock contention fell into different phases.
// Probes on a connection of their own queue behind the frame freqd is
// applying, and under host steal their latency grew threefold.
func runIngest(r *run) error {
	frames, err := traceFrames(r.cfg.seed)
	if err != nil {
		return err
	}
	probes := probeKeys(frames, 32)
	if err := r.setUp(r.startPreloaded(frames)); err != nil {
		return err
	}
	var rp *replica
	if r.tr != nil {
		if rp, err = newReplica(r.tr, defaultK, defaultShards); err != nil {
			return err
		}
		rp.warm(frames)
	}
	w := r.newWorker(false)
	cl, err := r.dial(r.daemons[0].addr, w)
	if err != nil {
		return err
	}
	acks := ones(len(frames)) // the preload
	rng := xrand.NewSplitMix64(genSeed(r.cfg.seed, 5))
	loop := func() {
		for i, j := 0, 0; r.running(); i++ {
			fi := i % len(frames)
			f := frames[fi]
			id, err := w.do("pairs", time.Time{}, len(f.items), func() error {
				return cl.UpdateBatch(f.items, f.weights)
			})
			if err == nil {
				acks[fi]++
			}
			if id != 0 {
				rp.ingest(id, f.items, f.weights)
			}
			if rng.Uint64n(16) == 0 {
				item := probes[j%len(probes)]
				j++
				wrote := w.recs[len(w.recs)-1].sent
				id, _ := w.do("est", wrote, 0, func() error { return checkEst(cl.Query(item)) })
				if id != 0 {
					rp.est(id, item)
				}
			}
		}
	}
	if err := r.measure(loop); err != nil {
		return err
	}
	ex := exact.New()
	addFrames(ex, frames, acks)
	if err := r.checkNode("ingest", cl, ex); err != nil {
		return err
	}
	return r.finish([]string{"pairs"}, []string{"est"})
}

// runQuery: one connection ingests PacketTrace frames at a fixed rate to
// a default daemon preloaded with the trace, while the other issues TOPK 64, FI and EST reads on a fixed schedule,
// each timed from its due time. Nearly every read follows a write, so
// each TOPK and FI pays a view rebuild. Five reads in eight are TOPK,
// so the median read is a TOPK (FI costs less, and a median falling
// between the two would swing with small shifts in either).
func runQuery(r *run) error {
	frames, err := traceFrames(r.cfg.seed)
	if err != nil {
		return err
	}
	probes := probeKeys(frames, 32)
	if err := r.setUp(r.startPreloaded(frames)); err != nil {
		return err
	}
	var rp *replica
	if r.tr != nil {
		if rp, err = newReplica(r.tr, defaultK, defaultShards); err != nil {
			return err
		}
		rp.warm(frames)
	}
	wi, wq := r.newWorker(true), r.newWorker(true)
	ci, err := r.dial(r.daemons[0].addr, wi)
	if err != nil {
		return err
	}
	cq, err := r.dial(r.daemons[0].addr, wq)
	if err != nil {
		return err
	}
	acks := ones(len(frames)) // the preload
	var acked atomic.Int64    // stream weight acknowledged so far
	for _, f := range frames {
		acked.Add(f.weight)
	}
	ingest := func() {
		for i := 0; ; i++ {
			due := r.begin.Add(time.Duration(i) * time.Second / queryIngestFrames)
			if !due.Before(r.end) {
				return
			}
			fi := i % len(frames)
			f := frames[fi]
			id, err := wi.do("pairs", due, len(f.items), func() error { return ci.UpdateBatch(f.items, f.weights) })
			if err == nil {
				acks[fi]++
				acked.Add(f.weight)
			}
			if id != 0 {
				rp.ingest(id, f.items, f.weights)
			}
		}
	}
	read := func() {
		for j := 0; ; j++ {
			due := r.begin.Add(time.Duration(j) * time.Second / queryReads)
			if !due.Before(r.end) {
				return
			}
			switch j % 8 {
			case 0, 1, 3, 5, 6:
				id, _ := wq.do("topk", due, 0, func() error { return checkRows(cq.TopK(64)) })
				if id != 0 {
					rp.topk(id, 64)
				}
			case 2:
				threshold := max(acked.Load()/256, 1)
				id, _ := wq.do("fi", due, 0, func() error {
					return checkRows(cq.FrequentItemsAboveThreshold(threshold, freq.NoFalsePositives))
				})
				if id != 0 {
					rp.fi(id, threshold)
				}
			default:
				item := probes[(j/8)%len(probes)]
				id, _ := wq.do("est", due, 0, func() error { return checkEst(cq.Query(item)) })
				if id != 0 {
					rp.est(id, item)
				}
			}
		}
	}
	if err := r.measure(ingest, read); err != nil {
		return err
	}
	ex := exact.New()
	addFrames(ex, frames, acks)
	if err := r.checkNode("query", cq, ex); err != nil {
		return err
	}
	if rp != nil {
		v, err := rp.fc.View()
		if err != nil {
			return err
		}
		r.metrics["freq.topk_allocs"], r.metrics["freq.topk_bytes"] = allocsPerCall(200, func() { v.TopK(64) })
	}
	return r.finish([]string{"pairs"}, []string{"topk", "est", "fi"})
}

// checkNode runs the end-of-run oracle on one daemon's global summary:
// its stream weight must equal the acknowledged weight and its bounds
// must bracket the exact counts.
func (r *run) checkNode(what string, c *clientT, ex *exact.Counter) error {
	// Acknowledged updates may sit in their connection's writer buffer
	// until that connection issues a non-update command; STATS on every
	// connection makes them all visible.
	for _, cl := range r.clients {
		if _, _, err := cl.Stats(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	sk, err := c.Snapshot()
	if err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	r.oracle.weight(what, sk.StreamWeight(), ex.StreamWeight())
	r.oracle.bounds(what, sk, ex, r.cfg.seed)
	r.metrics["max_error_ratio"] = ratio(float64(sk.MaximumError()), float64(sk.StreamWeight()))
	return nil
}

// checkRows validates a multi-row reply: estimates inside their bounds
// and rows in non-increasing estimate order.
func checkRows(rows []freq.Row[int64], err error) error {
	if err != nil {
		return err
	}
	ok := sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].Estimate > rows[j].Estimate })
	for _, row := range rows {
		ok = ok && 0 <= row.LowerBound && row.LowerBound <= row.Estimate && row.Estimate <= row.UpperBound
	}
	if !ok {
		return errBadReply
	}
	return nil
}

// checkEst validates an EST reply's bounds and bracketing.
func checkEst(est, lb, ub int64, err error) error {
	if err != nil {
		return err
	}
	if lb < 0 {
		return errBadReply
	}
	if lb > est || est > ub {
		return errTornEst
	}
	return nil
}
