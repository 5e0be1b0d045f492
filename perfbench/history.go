package main

import (
	"fmt"
	"sync"
	"time"

	"repro/freq"
	"repro/freq/server"
	"repro/freq/store"
	"repro/freq/tenant"
	"repro/internal/exact"
	"repro/internal/streamgen"
)

// History daemon geometry and schedule. The rotation clock is far
// longer than any run, so only the benchmark's ROTATE commands advance
// the window; 64 tenants compete for 16 live slots, so capacity
// evictions keep pushing tenants through the snapshot sink into the
// tenant store.
const (
	histK          = 4096
	histWindow     = 12
	histMaxTenants = 16
	histTenants    = 64
	histFrame      = 1024
	histWrites     = 400 // conn A ops/s: frames, every 100th a ROTATE
	histReads      = 80  // conn B reads/s
	histRotateOp   = 100 // four rotations, so four store appends, a second
)

var histArgs = []string{
	"-k", fmt.Sprint(histK), "-window", fmt.Sprint(histWindow), "-rotate-every", "1h",
	"-tenants", "-max-tenants", fmt.Sprint(histMaxTenants),
}

// runHistory: connection A sends, at a fixed rate, global frames and
// tenant-scoped v2 frames over 64 Zipf-popular tenants, with a ROTATE
// every 100th op; connection B issues WIN 4 TOPK, RANGE (last second) TOPK,
// WIN 4 TOPK, TENANT TOPK, WIN 4 TOPK and TENANT RANGE (last minute) TOPK
// on a fixed schedule.
func runHistory(r *run) error {
	gs, err := streamgen.ZipfStream(1.05, 1<<16, 256*histFrame, 10000, genSeed(r.cfg.seed, 2))
	if err != nil {
		return err
	}
	ts, err := streamgen.ZipfStream(1.05, 1<<16, 256*histFrame, 10000, genSeed(r.cfg.seed, 3))
	if err != nil {
		return err
	}
	global, tframes := framesOf(gs, histFrame), framesOf(ts, histFrame)
	z, err := streamgen.NewZipf(1.05, histTenants, genSeed(r.cfg.seed, 4))
	if err != nil {
		return err
	}
	tenantSeq := make([]string, 4096)
	for i := range tenantSeq {
		tenantSeq[i] = fmt.Sprintf("t%02d", z.Next())
	}

	// Acknowledged traffic, reset by each set-up and written during the
	// run by connection A's loop only.
	var (
		gAcks   []int64
		tWeight map[string]int64
	)
	err = r.setUp(func(i int) ([]*daemon, error) {
		args := append(append([]string(nil), histArgs...), "-store-dir", r.workFile(fmt.Sprintf("store-%d", i)))
		d, err := startDaemon(r.cfg.freqd, args)
		if err != nil {
			return nil, err
		}
		gAcks, tWeight = make([]int64, len(global)), map[string]int64{}
		return []*daemon{d}, preloadHistory(d.addr, global, tframes, gAcks, tWeight)
	})
	if err != nil {
		return err
	}

	var hr *historyReplica
	if r.tr != nil {
		if hr, err = newHistoryReplica(r); err != nil {
			return err
		}
		defer hr.close()
	}
	wa, wb := r.newWorker(true), r.newWorker(true)
	ca, err := r.dial(r.daemons[0].addr, wa)
	if err != nil {
		return err
	}
	cb, err := r.dial(r.daemons[0].addr, wb)
	if err != nil {
		return err
	}
	tcs := map[*clientT]map[string]*server.TenantClient[int64]{ca: {}, cb: {}}
	tc := func(c *clientT, id string) *server.TenantClient[int64] {
		t := tcs[c][id]
		if t == nil {
			t, _ = c.Tenant(id)
			tcs[c][id] = t
		}
		return t
	}
	before, err := ca.StatsFull()
	if err != nil {
		return err
	}
	writes := func() {
		g, t := 0, 0
		for i := 0; ; i++ {
			due := r.begin.Add(time.Duration(i) * time.Second / histWrites)
			if !due.Before(r.end) {
				return
			}
			switch {
			case i%histRotateOp == histRotateOp-1:
				id, _ := wa.do("rotate", due, 0, func() error { _, err := ca.Rotate(); return err })
				if id != 0 {
					hr.rotate(id)
				}
			case i%2 == 0:
				fi := g % len(global)
				g++
				f := global[fi]
				id, err := wa.do("pairs", due, len(f.items), func() error { return ca.UpdateBatch(f.items, f.weights) })
				if err == nil {
					gAcks[fi]++
				}
				if id != 0 {
					hr.global(id, f)
				}
			default:
				ten := tenantSeq[t%len(tenantSeq)]
				f := tframes[t%len(tframes)]
				t++
				id, err := wa.do("tenant_pairs", due, len(f.items), func() error {
					return tc(ca, ten).UpdateBatch(f.items, f.weights)
				})
				if err == nil {
					tWeight[ten] += f.weight
				}
				if id != 0 {
					hr.tenantIngest(id, ten, f)
				}
			}
		}
	}
	reads := func() {
		for j := 0; ; j++ {
			due := r.begin.Add(time.Duration(j) * time.Second / histReads)
			if !due.Before(r.end) {
				return
			}
			ten := tenantSeq[(j*7)%len(tenantSeq)]
			// Half the reads are WIN TOPK, so the median read is one.
			switch j % 6 {
			case 0, 2, 4:
				id, _ := wb.do("win_topk", due, 0, func() error { return checkRows(cb.TopKWindow(4, 64)) })
				if id != 0 {
					hr.winTopK(id)
				}
			case 1:
				from, to := due.Add(-time.Second), due.Add(time.Second)
				id, _ := wb.do("range_topk", due, 0, func() error { return checkRows(cb.TopKRange(from, to, 64)) })
				if id != 0 {
					hr.rangeQuery(id, from, to)
				}
			case 3:
				id, _ := wb.do("tenant_topk", due, 0, func() error { return checkRows(tc(cb, ten).TopK(64)) })
				if id != 0 {
					hr.tenantTopK(id, ten)
				}
			case 5:
				from, to := due.Add(-60*time.Second), due.Add(time.Second)
				id, _ := wb.do("tenant_range_topk", due, 0, func() error {
					return checkRows(tc(cb, ten).TopKRange(from, to, 64))
				})
				if id != 0 {
					hr.tenantRange(id, ten, from, to)
				}
			}
		}
	}
	if err := r.measure(writes, reads); err != nil {
		return err
	}
	after, err := ca.StatsFull()
	if err != nil {
		return err
	}
	r.metrics["tenant.evictions_per_s"] = float64(after.TenantEvictions-before.TenantEvictions) / r.end.Sub(r.begin).Seconds()
	if hr != nil {
		hr.metrics(r.metrics)
	}
	if err := checkHistory(r, ca, global, gAcks, tWeight); err != nil {
		return err
	}
	return r.finish([]string{"pairs", "tenant_pairs"}, []string{"win_topk", "range_topk", "tenant_topk", "tenant_range_topk"})
}

// preloadHistory fills a fresh history daemon so the run's first reads
// find live tenants and stored history: one frame for each of the first
// sixteen tenants (as many as fit, so none is evicted yet), then twelve
// global frames around two rotations. The tenant store's files are
// created by the evictions of the run's warm-up, not here: file creation
// time drifts (threefold within minutes on a 2-vCPU cloud VM with an
// ext4 disk), and setup_s would follow it.
func preloadHistory(addr string, global, tframes []frame, gAcks []int64, tWeight map[string]int64) error {
	c, err := server.Dial[int64](addr, server.WithBinary(), server.WithIOTimeout(20*time.Second))
	if err != nil {
		return err
	}
	defer c.Close()
	for n := range histMaxTenants {
		id := fmt.Sprintf("t%02d", n)
		t, err := c.Tenant(id)
		if err != nil {
			return err
		}
		f := tframes[n%len(tframes)]
		if err := t.UpdateBatch(f.items, f.weights); err != nil {
			return fmt.Errorf("preload tenant %s: %w", id, err)
		}
		tWeight[id] += f.weight
	}
	for i := range 12 {
		f := global[i]
		if err := c.UpdateBatch(f.items, f.weights); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		gAcks[i]++
		if i%6 == 5 {
			if _, err := c.Rotate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkHistory is the history oracle. Globally, the all-time summary
// and the stored history plus the live head must each hold exactly the
// acknowledged weight, and the all-time bounds must bracket the exact
// counts. Per tenant, the live summary plus the tenant's stored history
// must hold exactly that tenant's acknowledged weight, across every
// eviction.
func checkHistory(r *run, c *clientT, global []frame, gAcks []int64, tWeight map[string]int64) error {
	ex := exact.New()
	addFrames(ex, global, gAcks)
	if err := r.checkNode("history: all-time", c, ex); err != nil {
		return err
	}
	from, to := time.Unix(0, 0), time.Now().Add(24*time.Hour)
	stored, err := c.SnapshotRange(from, to)
	if err != nil {
		return fmt.Errorf("RANGE SNAP: %w", err)
	}
	head, err := c.SnapshotWindow(1)
	if err != nil {
		return fmt.Errorf("WIN 1 SNAP: %w", err)
	}
	r.oracle.weight("history: RANGE + live head", stored.StreamWeight()+head.StreamWeight(), ex.StreamWeight())
	for n := range histTenants {
		id := fmt.Sprintf("t%02d", n)
		t, err := c.Tenant(id)
		if err != nil {
			return err
		}
		live, _, err := t.Stats()
		if err != nil {
			return fmt.Errorf("TENANT %s STATS: %w", id, err)
		}
		old, err := t.SnapshotRange(from, to)
		if err != nil {
			return fmt.Errorf("TENANT %s RANGE SNAP: %w", id, err)
		}
		r.oracle.weight("history: tenant "+id+" live + RANGE", live+old.StreamWeight(), tWeight[id])
	}
	return nil
}

// historyReplica replays the history workload in-process: the global
// summary (a replica), its sliding window with a store as rotation sink,
// and a tenant manager with a tenant store as snapshot sink. The sinks
// record their appends as child spans of the call that triggered them.
// All replay calls are serialized, so the sinks know their parent span.
type historyReplica struct {
	tr     *tracer
	mu     sync.Mutex
	parent uint64
	g      *replica
	win    *freq.ConcurrentWindowed[int64]
	st     *store.Store[int64]
	mgr    *tenant.Manager[int64]
	ts     *store.Tenants[int64]
	dst    *freq.Sketch[int64]
	tdst   *freq.Sketch[int64]
}

func newHistoryReplica(r *run) (*historyReplica, error) {
	h := &historyReplica{tr: r.tr}
	var err error
	if h.g, err = newReplica(r.tr, histK, defaultShards); err != nil {
		return nil, err
	}
	if h.win, err = freq.NewConcurrentWindowed[int64](histK, histWindow); err != nil {
		return nil, err
	}
	if h.st, err = store.Open[int64](r.workFile("replica-store")); err != nil {
		return nil, err
	}
	h.win.SetRotationSink(timedSink{h}, time.Now())
	if h.mgr, err = tenant.New[int64](tenant.Config{
		MaxCounters: histK, Shards: defaultShards, WindowIntervals: histWindow, MaxTenants: histMaxTenants,
	}); err != nil {
		return nil, err
	}
	if h.ts, err = store.OpenTenants[int64](r.workFile("replica-tenants")); err != nil {
		return nil, err
	}
	h.mgr.SetSink(timedSink{h})
	return h, nil
}

func (h *historyReplica) close() {
	h.ts.Close()
	h.st.Close()
}

// timedSink forwards the replica's rotation and eviction hand-offs to
// its stores inside store.append spans.
type timedSink struct{ h *historyReplica }

func (s timedSink) AppendSlot(v *freq.View[int64], start, end time.Time) error {
	var err error
	s.h.tr.span("store.append", s.h.parent, func(uint64) { err = s.h.st.AppendSlot(v, start, end) })
	return err
}

func (s timedSink) AppendTenant(id string, v *freq.View[int64], start, end time.Time) error {
	var err error
	s.h.tr.span("store.tenant_append", s.h.parent, func(uint64) { err = s.h.ts.AppendTenant(id, v, start, end) })
	return err
}

// in runs fn serialized, with the sinks' parent set to the span fn runs
// in.
func (h *historyReplica) in(name string, parent uint64, fn func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tr.span(name, parent, func(id uint64) {
		h.parent = id
		fn()
	})
}

func (h *historyReplica) global(parent uint64, f frame) {
	h.mu.Lock()
	h.g.ingest(parent, f.items, f.weights)
	h.mu.Unlock()
	h.in("windowed.update", parent, func() { _ = h.win.UpdateWeightedBatch(f.items, f.weights) })
}

func (h *historyReplica) rotate(parent uint64) {
	h.in("windowed.rotate", parent, func() { h.win.RotateAt(time.Now()) })
}

func (h *historyReplica) tenantIngest(parent uint64, id string, f frame) {
	h.in("tenant.apply", parent, func() {
		t, err := h.mgr.Acquire(id)
		if err != nil {
			return
		}
		_ = t.UpdateWeightedBatch(f.items, f.weights)
		t.Release()
	})
}

func (h *historyReplica) winTopK(parent uint64) {
	h.in("windowed.view_merge", parent, func() { h.win.TopKLast(4, 64) })
}

func (h *historyReplica) rangeQuery(parent uint64, from, to time.Time) {
	h.in("store.query_into", parent, func() { h.dst, _ = h.st.QueryInto(h.dst, from, to) })
}

func (h *historyReplica) tenantTopK(parent uint64, id string) {
	h.in("tenant.topk", parent, func() {
		t, err := h.mgr.Acquire(id)
		if err != nil {
			return
		}
		t.Sketch().TopK(64)
		t.Release()
	})
}

func (h *historyReplica) tenantRange(parent uint64, id string, from, to time.Time) {
	h.in("store.tenant_query_into", parent, func() { h.tdst, _ = h.ts.QueryTenantInto(id, h.tdst, from, to) })
}

// metrics reports the replica's work counts.
func (h *historyReplica) metrics(m map[string]float64) {
	s := h.st.Stats()
	m["store.bytes_per_block"] = ratio(float64(s.Bytes), float64(s.Blocks))
	ms := h.mgr.Stats()
	m["tenant.pool_hit_ratio"] = ratio(float64(ms.PoolHits), float64(ms.Created))
}
