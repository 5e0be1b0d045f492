package main

import (
	"fmt"
	"slices"

	"repro/internal/exact"
	"repro/internal/streamgen"
	"repro/internal/xrand"
)

// frame is one PAIRS frame of generated updates.
type frame struct {
	items, weights []int64
	weight         int64
}

// framesOf cuts stream into frames of size updates (the last may be
// shorter).
func framesOf(stream []streamgen.Update, size int) []frame {
	var out []frame
	for lo := 0; lo < len(stream); lo += size {
		part := stream[lo:min(lo+size, len(stream))]
		f := frame{items: make([]int64, len(part)), weights: make([]int64, len(part))}
		for i, u := range part {
			f.items[i], f.weights[i] = u.Item, u.Weight
			f.weight += u.Weight
		}
		out = append(out, f)
	}
	return out
}

// addFrames adds to ex every frame acknowledged acks[i] times.
func addFrames(ex *exact.Counter, frames []frame, acks []int64) {
	for i, f := range frames {
		if acks[i] == 0 {
			continue
		}
		for j, it := range f.items {
			ex.Update(it, f.weights[j]*acks[i])
		}
	}
}

// oracle counts the checks made against exact answers and the ones
// that failed.
type oracle struct {
	checks, violations int64
	notes              []string
}

func (o *oracle) fail(format string, args ...any) {
	o.violations++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, "VIOLATION "+fmt.Sprintf(format, args...))
	}
}

// weight checks that a summary's stream weight equals the weight the
// daemon acknowledged.
func (o *oracle) weight(what string, got, want int64) {
	o.checks++
	if got != want {
		o.fail("%s: stream weight %d, acknowledged %d", what, got, want)
	}
}

// bounded is what the bounds check reads from a summary.
type bounded interface {
	LowerBound(item int64) int64
	UpperBound(item int64) int64
	MaximumError() int64
}

// bounds checks the paper's guarantee, LowerBound <= f <= UpperBound and
// UpperBound - LowerBound <= MaximumError, for the exact top 1000 keys
// and a seeded sample of 1000 of the others.
func (o *oracle) bounds(what string, sk bounded, ex *exact.Counter, seed uint64) {
	top := ex.TopK(1000)
	keys := make([]int64, 0, len(top)+1000)
	inTop := make(map[int64]bool, len(top))
	for _, it := range top {
		keys = append(keys, it.Item)
		inTop[it.Item] = true
	}
	var rest []int64
	ex.Range(func(item, _ int64) bool {
		if !inTop[item] {
			rest = append(rest, item)
		}
		return true
	})
	slices.Sort(rest)
	rng := xrand.NewSplitMix64(seed ^ 0x0dd5a3913e57)
	for i := 0; i < 1000 && len(rest) > 0; i++ {
		j := int(rng.Uint64n(uint64(len(rest))))
		keys = append(keys, rest[j])
		rest[j] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
	}
	maxErr := sk.MaximumError()
	bad := o.violations
	for _, k := range keys {
		o.checks++
		f, lb, ub := ex.Freq(k), sk.LowerBound(k), sk.UpperBound(k)
		if lb > f || f > ub || ub-lb > maxErr {
			o.fail("%s: item %d: lb %d, f %d, ub %d, max error %d", what, k, lb, f, ub, maxErr)
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("%s: bounds checked for %d keys, %d violations", what, len(keys), o.violations-bad))
}
