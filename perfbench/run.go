package main

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/freq/server"
)

// lateLimit is how late an open-loop generator may send its p99 op
// before the run is marked invalid: past it, latencies would describe
// the generator rather than freqd. A generator that cannot keep up falls
// behind without bound; one descheduled now and then by a busy host
// stays within a few milliseconds.
const lateLimit = 20 * time.Millisecond

// warmUp runs the loops before the measured window opens, so connection
// buffers, heaps and caches have settled by then.
const warmUp = time.Second

// The measurement window is cut into slots of stealSlot. A slot in which
// the hypervisor took more than stealLimit of the machine's CPU time for
// other guests (the steal column of /proc/stat) measures the host rather
// than freqd; such slots are left out, but at least a share stealKeep of
// the slots counts (then the ones that lost the least). Which slots
// count depends only on the host's steal, never on what was measured in
// them. Closed-loop rates use every slot instead (see itemsPerSecond).
const (
	stealSlot  = 500 * time.Millisecond
	stealLimit = 0.02
	stealKeep  = 0.25
)

type clientT = server.Client[int64]

// run is the state of one benchmark invocation.
type run struct {
	cfg     config
	tr      *tracer // nil unless cfg.trace
	workDir string  // daemon stores and replica stores; removed at the end

	daemons []*daemon
	clients []*clientT
	workers []*worker

	// The loops run over [begin, end), open-loop schedules counting from
	// begin. [begin, start) is a warm-up whose ops are not measured; the
	// measurement window [start, end) is traced from mid on when
	// cfg.trace is set (mid == end otherwise).
	begin, start, mid, end time.Time
	// procA is the daemons' CPU time over [start, mid); unstolenA is the
	// length of [start, mid) less the time the hypervisor stole from it.
	procA, unstolenA time.Duration
	// quiet[i] reports whether slot i of the measurement window counts
	// (see stealSlot).
	quiet []bool

	metrics map[string]float64
	notes   []string
	oracle  oracle
	prov    map[string]any

	opsAttempted, opsFailed int64
	badReplies              int64 // replies that broke the summary's guarantees
}

func newRun(cfg config) (*run, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, workDir: dir, metrics: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	r.prov = provenance(cfg)
	return r, nil
}

// close stops every daemon and client and removes the work directory.
func (r *run) close() {
	for _, c := range r.clients {
		c.Close()
	}
	for _, d := range r.daemons {
		if err := d.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	os.RemoveAll(r.workDir)
}

// setUp starts the workload's daemons cfg.setups times through start,
// which returns them ready and preloaded (on error, with the ones it
// started); setup_s is the median of the timed set-ups. Every set-up
// but the last is stopped again.
func (r *run) setUp(start func(i int) ([]*daemon, error)) error {
	var secs []float64
	for i := 0; i < r.cfg.setups; i++ {
		t0 := time.Now()
		ds, err := start(i)
		if err != nil {
			for _, d := range ds {
				_ = d.stop() // the set-up error is the one to report
			}
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == r.cfg.setups-1 {
			r.daemons = ds
			break
		}
		for _, d := range ds {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	r.metrics["setup_s"] = median(secs)
	r.prov["setup_samples"] = len(secs)
	var flags [][]string
	for _, d := range r.daemons {
		flags = append(flags, d.args)
	}
	r.prov["daemon_flags"] = flags
	return nil
}

// dial opens one binary-framed client to addr whose traffic w counts.
func (r *run) dial(addr string, w *worker) (*clientT, error) {
	c, err := server.Dial[int64](addr,
		server.WithBinary(),
		server.WithDialTimeout(5*time.Second),
		server.WithIOTimeout(20*time.Second),
		server.WithRetry(2, 5*time.Millisecond),
		server.WithDialer(func() (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: nc, n: &w.traffic}, nil
		}))
	if err != nil {
		return nil, err
	}
	if c.BinaryVersion() != 2 {
		c.Close()
		return nil, fmt.Errorf("%s did not negotiate binary framing v2", addr)
	}
	r.clients = append(r.clients, c)
	return c, nil
}

// newWorker returns an op recorder for one connection, driven by one
// goroutine. Workers that one goroutine drives in turn must share
// their lastDone clock.
func (r *run) newWorker(open bool) *worker {
	w := &worker{r: r, open: open, lastDone: new(time.Time)}
	r.workers = append(r.workers, w)
	return w
}

// measure runs the loops concurrently through the warm-up and the
// measurement window, sampling the daemons' CPU time and resident
// memory over the untraced part and the host's steal in every slot.
func (r *run) measure(loops ...func()) error {
	runtime.GC()
	r.begin = time.Now()
	r.start = r.begin.Add(warmUp)
	r.end = r.start.Add(r.cfg.duration)
	r.mid = r.end
	if r.cfg.trace {
		r.mid = r.start.Add(r.cfg.duration / 2)
	}
	var wg sync.WaitGroup
	for _, loop := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	marks := make(chan []cpuSample, 1)
	go func() {
		time.Sleep(time.Until(r.start))
		m := []cpuSample{hostCPU()}
		for i := 1; i <= r.slots(); i++ {
			time.Sleep(time.Until(r.slotStart(i)))
			m = append(m, hostCPU())
		}
		marks <- m
	}()
	time.Sleep(time.Until(r.start))
	before, err := r.sampleDaemons()
	// Resident memory, sampled every 100ms over the untraced part.
	var rss []float64
	after := before
	for err == nil && time.Now().Before(r.mid) {
		time.Sleep(min(100*time.Millisecond, time.Until(r.mid)))
		after, err = r.sampleDaemons()
		rss = append(rss, float64(after.rssKB)/1024)
	}
	wg.Wait()
	r.markQuiet(<-marks)
	if err != nil {
		return err
	}
	r.procA = after.cpu - before.cpu
	r.metrics["daemon_rss_mb"] = median(rss)
	return nil
}

// slots is the number of steal slots in the measurement window; the
// last may be shorter than stealSlot.
func (r *run) slots() int {
	return int((r.end.Sub(r.start) + stealSlot - 1) / stealSlot)
}

// slotStart is when slot i begins (i == slots() gives the window's end).
func (r *run) slotStart(i int) time.Time {
	return minTime(r.start.Add(time.Duration(i)*stealSlot), r.end)
}

// markQuiet sets r.quiet and r.unstolenA from the host's CPU counters
// read at every slot boundary. The untraced and the traced part each
// get their own share stealKeep of counted slots.
//
// A closed loop is one chain of requests that wants one CPU at a time
// and stalls while the hypervisor holds the CPU it runs on. The
// hypervisor takes time only from CPUs that want to run, so of a slot's
// stolen time the chain lost the share one CPU has in the CPU time the
// machine wanted (ran plus stolen): all of it when the chain was all
// that wanted to run, half when another chain kept the second CPU busy.
func (r *run) markQuiet(marks []cpuSample) {
	n := len(marks) - 1
	lost := make([]float64, n) // share of the slot's CPU time stolen
	var parts [2][]int         // slot indices of the untraced and the traced part
	for i := range n {
		lo, hi := r.slotStart(i), r.slotStart(i+1)
		slot := hi.Sub(lo)
		stolen := marks[i+1].steal - marks[i].steal
		lost[i] = ratio(stolen.Seconds(), slot.Seconds()*float64(runtime.NumCPU()))
		if lo.Before(r.mid) {
			parts[0] = append(parts[0], i)
			wanted := max(marks[i+1].busy-marks[i].busy+stolen, slot)
			chain := min(time.Duration(float64(stolen)*float64(slot)/float64(wanted)), slot)
			span := minTime(hi, r.mid).Sub(lo)
			r.unstolenA += span - time.Duration(float64(chain)*float64(span)/float64(slot))
		} else {
			parts[1] = append(parts[1], i)
		}
	}
	r.quiet = make([]bool, n)
	kept := 0
	for _, part := range parts {
		slices.SortStableFunc(part, func(a, b int) int { return cmp.Compare(lost[a], lost[b]) })
		keep := int(math.Ceil(stealKeep * float64(len(part))))
		for rank, i := range part {
			if r.quiet[i] = lost[i] <= stealLimit || rank < keep; r.quiet[i] {
				kept++
			}
		}
	}
	note := fmt.Sprintf("host steal %.3g s over the window; untraced part %.4g s unstolen; %d of %d slots counted; stolen share per slot:",
		(marks[n].steal - marks[0].steal).Seconds(), r.unstolenA.Seconds(), kept, n)
	for _, l := range lost {
		note += fmt.Sprintf(" %.2f", l)
	}
	r.notes = append(r.notes, note)
	r.prov["host_steal_s"] = (marks[n].steal - marks[0].steal).Seconds()
	r.prov["slots_counted"] = fmt.Sprintf("%d/%d", kept, n)
}

// counted reports whether every slot that [from, to] touches counts.
// Times outside the measurement window touch no slot.
func (r *run) counted(from, to time.Time) bool {
	for i := max(r.slotOf(from), 0); i <= min(r.slotOf(to), len(r.quiet)-1); i++ {
		if !r.quiet[i] {
			return false
		}
	}
	return true
}

func (r *run) slotOf(t time.Time) int {
	if t.Before(r.start) {
		return -1
	}
	return int(t.Sub(r.start) / stealSlot)
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// sampleDaemons sums /proc samples over every daemon.
func (r *run) sampleDaemons() (procSample, error) {
	var sum procSample
	for _, d := range r.daemons {
		s, err := sampleProc(d.cmd.Process.Pid)
		if err != nil {
			return sum, err
		}
		sum.cpu += s.cpu
		sum.rssKB += s.rssKB
		sum.hwmKB += s.hwmKB
	}
	return sum, nil
}

// running reports whether the measurement window is still open.
func (r *run) running() bool { return time.Now().Before(r.end) }

// countingConn counts the bytes and calls crossing a client connection:
// timing-free work counts taken outside the daemon.
type countingConn struct {
	net.Conn
	n *traffic
}

type traffic struct {
	bytesOut, bytesIn, writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.writes.Add(1)
	c.n.bytesOut.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.bytesIn.Add(int64(n))
	return n, err
}

// opRec is one op a generator loop issued.
type opRec struct {
	kind            string
	due, sent, done time.Time
	late            time.Duration // generator delay beyond what freqd imposed
	items           int
	open            bool // timed from a due time on a schedule
	failed          bool
	bytesOut        int64
	bytesIn         int64
	writes          int64
}

// worker issues one connection's ops and records each.
type worker struct {
	r       *run
	open    bool // ops carry due times (open loop)
	traffic traffic
	recs    []opRec
	// lastDone is when the driving goroutine's previous op completed;
	// workers driven by one goroutine share it.
	lastDone *time.Time

	transportErrs, errReplies int64
	// badReplies counts the replies that broke the summary's guarantees
	// (errBadReply): failed ops that also make the run incorrect.
	// tornEst counts the EST replies whose bounds did not bracket the
	// estimate (errTornEst): answered ops, reported on their own.
	badReplies, tornEst int64
}

// do issues one op. In an open loop it first sleeps until due and the
// op's latency runs from due, so a stall is charged to the ops queued
// behind it. In a closed loop the op is due when sent, unless due is
// set: then it is an earlier op's send time, and the latency covers
// both. The generator's own lateness is the send time minus the later
// of the open loop's due and the previous op's completion. It returns
// the op's wire span when the op falls in the traced half (0 otherwise)
// and fn's error.
func (w *worker) do(kind string, due time.Time, items int, fn func() error) (uint64, error) {
	if w.open {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
	}
	out, in, writes := w.traffic.bytesOut.Load(), w.traffic.bytesIn.Load(), w.traffic.writes.Load()
	sent := time.Now()
	// The op could have gone out once it was due and the connection was
	// free.
	ready := *w.lastDone
	if w.open && due.After(ready) {
		ready = due
	}
	if ready.IsZero() {
		ready = sent
	}
	if due.IsZero() {
		due = sent
	}
	err := fn()
	done := time.Now()
	if errors.Is(err, errTornEst) {
		w.tornEst++
		err = nil
	}
	*w.lastDone = done
	rec := opRec{
		kind: kind, due: due, sent: sent, done: done, late: sent.Sub(ready), items: items, open: w.open, failed: err != nil,
		bytesOut: w.traffic.bytesOut.Load() - out,
		bytesIn:  w.traffic.bytesIn.Load() - in,
		writes:   w.traffic.writes.Load() - writes,
	}
	w.recs = append(w.recs, rec)
	if err != nil {
		var te *server.TransportError
		switch {
		case errors.As(err, &te):
			w.transportErrs++
		case errors.Is(err, errBadReply):
			w.badReplies++
		default:
			w.errReplies++
		}
		return 0, err
	}
	if w.r.tr != nil && !sent.Before(w.r.mid) {
		return w.r.tr.record("wire."+kind, 0, sent, done), nil
	}
	return 0, nil
}

// recs returns the ops of the untraced part whose kind is in kinds (all
// ops when kinds is empty).
func (r *run) recs(kinds ...string) []opRec { return r.recsIn(false, kinds...) }

// recsIn returns the ops of the traced (or untraced) part whose kind is
// in kinds (all ops when kinds is empty), leaving out every op whose
// time from due to done touched a slot that does not count.
func (r *run) recsIn(traced bool, kinds ...string) []opRec {
	var out []opRec
	for _, w := range r.workers {
		for _, rec := range w.recs {
			if rec.sent.Before(r.start) || rec.sent.Before(r.mid) == traced || !r.counted(rec.due, rec.done) {
				continue
			}
			if len(kinds) == 0 || slices.Contains(kinds, rec.kind) {
				out = append(out, rec)
			}
		}
	}
	return out
}

// latencies returns the successful ops' latencies from due time, in ms.
func latencies(recs []opRec) []float64 {
	var out []float64
	for _, rec := range recs {
		if !rec.failed {
			out = append(out, rec.done.Sub(rec.due).Seconds()*1e3)
		}
	}
	return out
}

// rtts returns the successful ops' round trips from send time, in µs.
func rtts(recs []opRec) []float64 {
	var out []float64
	for _, rec := range recs {
		if !rec.failed {
			out = append(out, rec.done.Sub(rec.sent).Seconds()*1e6)
		}
	}
	return out
}

// itemsPerSecond is the rate at which freqd acknowledged the items of
// frames of kinds over the untraced part. In a closed loop it is the
// items acknowledged over the time the hypervisor left the part's one
// chain of requests (r.unstolenA): over ten runs on a 2-core host under
// heavy steal, the quartiles of the rate over the counted slots lay 20%
// of the median apart, those of this one 2%. An open
// loop's schedule fixes how many items each second sends, so there it
// is the items of the frames sent over the time until the last of them
// was acknowledged, which falls below the offered rate only when freqd
// lags.
func (r *run) itemsPerSecond(kinds []string) float64 {
	var items float64
	var last time.Time
	open := false
	for _, w := range r.workers {
		for _, rec := range w.recs {
			if rec.failed || !slices.Contains(kinds, rec.kind) {
				continue
			}
			open = rec.open
			if open {
				if !rec.sent.Before(r.start) && rec.sent.Before(r.mid) {
					items += float64(rec.items)
					last = maxTime(last, rec.done)
				}
			} else if !rec.done.Before(r.start) && rec.done.Before(r.mid) {
				items += float64(rec.items)
			}
		}
	}
	if open {
		return ratio(items, last.Sub(r.start).Seconds())
	}
	perSlot := make([]float64, len(r.quiet))
	for _, w := range r.workers {
		for _, rec := range w.recs {
			if i := r.slotOf(rec.done); !rec.failed && slices.Contains(kinds, rec.kind) && i >= 0 && i < len(perSlot) {
				perSlot[i] += float64(rec.items)
			}
		}
	}
	note := "items acknowledged per slot:"
	for _, n := range perSlot {
		note += fmt.Sprintf(" %.4g", n)
	}
	r.notes = append(r.notes, note)
	return ratio(items, r.unstolenA.Seconds())
}

// finish computes the metrics every workload shares from the op records
// and /proc, counting each op into attempted/failed.
func (r *run) finish(frameKinds, queryKinds []string) error {
	all := r.recs()
	var lates []float64
	for _, w := range r.workers {
		for _, rec := range w.recs {
			r.opsAttempted++
			if rec.failed {
				r.opsFailed++
			}
		}
		r.metrics["server.transport_errors"] += float64(w.transportErrs)
		r.metrics["server.err_replies"] += float64(w.errReplies)
		r.badReplies += w.badReplies
		if w.badReplies > 0 {
			r.oracle.notes = append(r.oracle.notes, fmt.Sprintf("VIOLATION %d replies broke the bounds or the order", w.badReplies))
		}
		r.metrics["server.torn_est_replies"] += float64(w.tornEst)
		if w.tornEst > 0 {
			r.notes = append(r.notes, fmt.Sprintf("%d EST replies had lb <= est <= ub broken (three shard reads torn by a concurrent flush; server.torn_est_replies)", w.tornEst))
		}
	}
	for _, rec := range all {
		lates = append(lates, rec.late.Seconds()*1e3)
	}
	frames := r.recs(frameKinds...)
	queries := r.recs(queryKinds...)
	r.metrics["ingest_items_per_s"] = r.itemsPerSecond(frameKinds)
	r.setTimings("ingest_frame", frames)
	r.setTimings("query", queries)
	r.metrics["loadgen.late_p99_ms"] = quantile(lates, 0.99)
	r.prov["samples"] = map[string]int{"frames": len(frames), "queries": len(queries), "ops": len(all)}

	pairs := rtts(frames)
	r.metrics["server.pairs_rtt_p50_us"] = quantile(pairs, 0.5)
	r.metrics["server.pairs_rtt_p99_us"] = quantile(pairs, 0.99)
	var out, writes, allItems int64
	for _, rec := range frames {
		out += rec.bytesOut
		writes += rec.writes
		if !rec.failed {
			allItems += int64(rec.items)
		}
	}
	r.metrics["server.bytes_per_item"] = ratio(float64(out), float64(allItems))
	r.metrics["server.writes_per_frame"] = ratio(float64(writes), float64(len(frames)))
	for _, c := range r.clients {
		r.metrics["server.retries"] += float64(c.Retries())
	}
	for kind, name := range rttMetrics {
		r.metrics[name] = median(rtts(r.recs(kind)))
	}
	kinds := map[string]bool{}
	for _, rec := range all {
		kinds[rec.kind] = true
	}
	for _, kind := range slices.Sorted(maps.Keys(kinds)) {
		recs := r.recs(kind)
		lat, rtt := latencies(recs), rtts(recs)
		r.notes = append(r.notes, fmt.Sprintf("%-18s n=%-6d latency p50 %.4g p99 %.4g ms, round trip p50 %.4g p99 %.4g us",
			kind, len(recs), median(lat), quantile(lat, 0.99), median(rtt), quantile(rtt, 0.99)))
	}
	var topkBytes int64
	topks := r.recs("topk")
	for _, rec := range topks {
		topkBytes += rec.bytesIn
	}
	r.metrics["server.reply_bytes_per_topk"] = ratio(float64(topkBytes), float64(len(topks)))

	cpu := r.procA.Seconds()
	r.metrics["freqd.cpu_util"] = cpu / r.mid.Sub(r.start).Seconds()
	r.metrics["freqd.cpu_us_per_item"] = ratio(cpu*1e6, float64(allItems))
	hwm, err := r.sampleDaemons()
	if err != nil {
		return err
	}
	r.metrics["freqd.peak_rss_mb"] = float64(hwm.hwmKB) / 1024
	if r.cfg.trace {
		r.tr.layerMetrics(r.metrics)
		r.metrics["trace.overhead_ratio"] = math.Sqrt(r.slowdown(frameKinds) * r.slowdown(queryKinds))
	}
	return nil
}

// rttMetrics names the per-layer round-trip metric of each op kind.
var rttMetrics = map[string]string{
	"topk":              "server.topk_rtt_p50_us",
	"fi":                "server.fi_rtt_p50_us",
	"est":               "server.est_rtt_p50_us",
	"rotate":            "windowed.rotate_rtt_p50_us",
	"win_topk":          "windowed.win_topk_rtt_p50_us",
	"range_topk":        "store.range_rtt_p50_us",
	"tenant_topk":       "tenant.topk_rtt_p50_us",
	"tenant_range_topk": "tenant.range_rtt_p50_us",
}

// slowdown is the traced part's median latency of kinds over the
// untraced part's.
func (r *run) slowdown(kinds []string) float64 {
	return ratio(median(latencies(r.recsIn(true, kinds...))), median(latencies(r.recs(kinds...))))
}

// setTimings reports the median latency of recs as the end-to-end
// metric name_p50_ms and its p90 and p99 as the per-layer metrics
// loadgen.name_p90_ms and loadgen.name_p99_ms. The tails are not
// end-to-end metrics: a host whose hypervisor takes the CPUs for tens of
// milliseconds at a time moves them by more than any useful bound. It
// notes the sample count and the highest percentile with ten samples
// beyond it.
func (r *run) setTimings(name string, recs []opRec) {
	ms := latencies(recs)
	r.metrics[name+"_p50_ms"] = quantile(ms, 0.5)
	r.metrics["loadgen."+name+"_p90_ms"] = quantile(ms, 0.9)
	r.metrics["loadgen."+name+"_p99_ms"] = quantile(ms, 0.99)
	note := fmt.Sprintf("%s: %d samples", name, len(ms))
	if q := tailQuantile(len(ms)); q > 0 {
		note += fmt.Sprintf(", p%.4g=%.4g ms is the highest percentile with >=10 samples beyond it", q*100, quantile(ms, q))
	}
	if len(ms) < 1000 {
		note += " (fewer than 1000: p99 has fewer than 10 samples beyond it)"
	}
	r.notes = append(r.notes, note)
}

// valid reports whether the open-loop generator kept to its schedule
// over the ops the end-to-end metrics come from (a traced part's replay
// delays the generator by design).
func (r *run) valid() bool {
	var lates []float64
	for _, rec := range r.recs() {
		if rec.open {
			lates = append(lates, rec.late.Seconds()*1e3)
		}
	}
	late := quantile(lates, 0.99)
	if late > float64(lateLimit)/float64(time.Millisecond) {
		r.notes = append(r.notes, fmt.Sprintf("INVALID: generator p99 lateness %.3g ms exceeds %s", late, lateLimit))
		return false
	}
	return true
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of the usual tail quantiles that leaves
// at least ten of n samples beyond it, or 0 when none does.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.9999, 0.999, 0.995, 0.99, 0.95, 0.9, 0.5} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// workFile returns a path under the run's work directory.
func (r *run) workFile(name string) string { return filepath.Join(r.workDir, name) }
