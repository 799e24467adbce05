package main

import (
	"bufio"
	"cmp"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
)

// layerTime is what the traced run attributes to one boundary.
type layerTime struct {
	calls  int     // spans recorded on the boundary
	selfNS float64 // weighted exclusive time, see analyze
	durNS  int64   // plain sum of span durations
}

// traceResult is the per-layer decomposition of one traced phase.
type traceResult struct {
	layers  []layerTime // parallel to recorder.layers
	unitNS  int64       // sum of app-unit span durations
	orphans int         // spans with no enclosing span one boundary up
	// order lists span indices by start time and parent gives, per span
	// index, the index of its parent (-1 for units and orphans); both are
	// kept for the JSONL write-out.
	order  []int32
	parent []int32
}

// closure is the share of the units' time the per-layer self times
// add back up to. Properly nested spans telescope to exactly 1; an
// orphan (a call that ran outside any unit, or outlived its caller)
// pushes it above.
func (t *traceResult) closure() float64 {
	if t.unitNS == 0 {
		return 0
	}
	var sum float64
	for _, l := range t.layers {
		sum += l.selfNS
	}
	return sum / float64(t.unitNS)
}

// analyze resolves each span's parent — the span one boundary up that
// encloses it — and computes per-boundary exclusive ("self") time.
//
// A span's self time is its duration minus the union of its children's
// intervals: children that run concurrently (the multipart engine's
// chunk workers, a hedged mirror read) cover their parent's clock once,
// not once each. So that the per-layer times still add up to the
// wall-clock unit time, a group of overlapping siblings is weighted by
// union/sum of their durations, and the weight carries down to their
// descendants: two chunk streams that overlap completely are charged
// half each.
func analyze(spans []span, nLayers int) *traceResult {
	n := len(spans)
	res := &traceResult{
		layers: make([]layerTime, nLayers),
		order:  make([]int32, n),
		parent: make([]int32, n),
	}
	for i := range res.order {
		res.order[i] = int32(i)
	}
	slices.SortFunc(res.order, func(a, b int32) int {
		sa, sb := spans[a], spans[b]
		switch {
		case sa.start != sb.start:
			return cmp.Compare(sa.start, sb.start)
		case sa.layer != sb.layer:
			return int(sa.layer) - int(sb.layer)
		default:
			return cmp.Compare(sb.end, sa.end)
		}
	})
	byLayer := make([][]int32, nLayers)
	for _, i := range res.order {
		l := spans[i].layer
		byLayer[l] = append(byLayer[l], i)
	}

	// Parent: the latest-starting span one boundary up that contains
	// this one. With one client at most a handful are open at once, so
	// a short backward scan from the binary-search position suffices.
	for i := range res.parent {
		res.parent[i] = -1
	}
	for l := 1; l < nLayers; l++ {
		up := byLayer[l-1]
		for _, i := range byLayer[l] {
			s := spans[i]
			j := sort.Search(len(up), func(k int) bool { return spans[up[k]].start > s.start }) - 1
			for back := 0; j >= 0 && back < 32; j, back = j-1, back+1 {
				if p := spans[up[j]]; p.end >= s.end {
					res.parent[i] = up[j]
					break
				}
			}
			if res.parent[i] < 0 {
				res.orphans++
			}
		}
	}

	// Children grouped by parent, in start order, then one sweep per
	// group for the union length.
	kids := make([]int32, 0, n)
	for _, i := range res.order {
		if res.parent[i] >= 0 {
			kids = append(kids, i)
		}
	}
	slices.SortStableFunc(kids, func(a, b int32) int { return int(res.parent[a]) - int(res.parent[b]) })
	covered := make([]int64, n) // union of children, per parent
	childSum := make([]int64, n)
	for g := 0; g < len(kids); {
		p := res.parent[kids[g]]
		var union, sum, curEnd int64
		curEnd = math.MinInt64
		for ; g < len(kids) && res.parent[kids[g]] == p; g++ {
			c := spans[kids[g]]
			sum += c.end - c.start
			switch {
			case c.start >= curEnd:
				union += c.end - c.start
				curEnd = c.end
			case c.end > curEnd:
				union += c.end - curEnd
				curEnd = c.end
			}
		}
		covered[p], childSum[p] = union, sum
	}

	weight := make([]float64, n)
	for l := 0; l < nLayers; l++ {
		for _, i := range byLayer[l] {
			w := 1.0
			if p := res.parent[i]; p >= 0 && childSum[p] > 0 {
				w = weight[p] * float64(covered[p]) / float64(childSum[p])
			}
			weight[i] = w
			s := spans[i]
			dur := s.end - s.start
			lt := &res.layers[l]
			lt.calls++
			lt.durNS += dur
			lt.selfNS += w * float64(dur-covered[i])
			if l == 0 {
				res.unitNS += dur
			}
		}
	}
	return res
}

// writeTrace writes one JSON object per span, in start order, with the
// parent resolved by analyze: {"id","parent","layer","op","start_ns",
// "end_ns"}. parent is -1 for a unit and for an orphan.
func writeTrace(path string, layers []string, spans []span, res *traceResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	id := make([]int32, len(res.order)) // span index -> line number
	for line, i := range res.order {
		id[i] = int32(line)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for line, i := range res.order {
		s := spans[i]
		parent := int64(-1)
		if p := res.parent[i]; p >= 0 {
			parent = int64(id[p])
		}
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(line), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, parent, 10)
		b = append(b, `,"layer":"`...)
		b = append(b, layers[s.layer]...)
		b = append(b, `","op":"`...)
		b = append(b, opNames[s.op]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the samples
// at or below it. An empty slice yields 0.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of vs (mean of the middle two for an even
// count) without disturbing the caller's order. Empty yields 0.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
