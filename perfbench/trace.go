package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share the
// root wire span as their ancestor through Parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-layer work counts in memory until the run
// ends. Safe for concurrent use.
type tracer struct {
	epoch  time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

// record stores a finished span and returns its id.
func (t *tracer) record(name string, parent uint64, start, end time.Time) uint64 {
	id := t.next.Add(1)
	t.store(span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

func (t *tracer) store(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// span runs fn inside a span named name under parent; fn receives the
// span's id so the calls it makes can be recorded as its children.
func (t *tracer) span(name string, parent uint64, fn func(id uint64)) {
	id := t.next.Add(1)
	start := time.Now()
	fn(id)
	end := time.Now()
	t.store(span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// add accumulates a work count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// durations returns the durations of every span named name, in µs.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes summarizes the spans per name: count, total time, and self
// time (a span's duration minus the part of it its children cover).
func (t *tracer) selfTimes() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	byName := map[string]*agg{}
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - covered(s, children[s.ID])
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		a := byName[n]
		out = append(out, fmt.Sprintf("%-26s n=%-7d total=%10.3f ms  self=%10.3f ms", n, a.n,
			float64(a.total)/1e6, float64(a.self)/1e6))
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end int64
	for _, v := range ivs {
		lo := max(v.lo, end)
		if v.hi > lo {
			sum += v.hi - lo
		}
		end = max(end, v.hi)
	}
	return sum
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives the replay-based per-layer metrics from the
// spans and counts. Metrics whose spans never ran stay 0.
func (t *tracer) layerMetrics(m map[string]float64) {
	p50 := func(name string) float64 { return median(t.durations(name)) }
	m["freq.writer_ns_per_item"] = ratio(t.total("freq.writer")*1e3, t.count("freq.writer.items"))
	m["freq.view_build_p50_us"] = p50("freq.view")
	m["freq.view_merges_per_read"] = ratio(t.count("freq.view.merges"), t.count("freq.view.reads"))
	m["freq.topk_p50_us"] = p50("freq.topk")
	m["sharded.partition_skew"] = ratio(t.count("sharded.skew"), float64(len(t.durations("sharded.partition"))))
	m["core.update_pairs_ns_per_item"] = ratio(t.total("core.update_pairs")*1e3, t.count("core.items"))
	m["core.decrements_per_mitem"] = ratio(t.count("core.decrements")*1e6, t.count("core.items"))
	m["core.serialize_p50_us"] = p50("core.serialize")
	m["core.deserialize_p50_us"] = p50("core.deserialize")
	m["core.merge_p50_us"] = p50("core.merge")
	m["windowed.view_merge_p50_us"] = p50("windowed.view_merge")
	m["store.append_p50_us"] = p50("store.append")
	m["store.query_into_p50_us"] = p50("store.query_into")
}
