package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the run started; Parent 0 means a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory; write saves them once at the end.
type spanLog struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(run string) *spanLog { return &spanLog{run: run, t0: time.Now()} }

// add records a finished span and returns its id.
func (l *spanLog) add(parent int, layer, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Run: l.run, Layer: layer, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return id
}

// open starts a span whose end is filled in by the returned function.
func (l *spanLog) open(parent int, layer, name string) (id int, done func()) {
	start := time.Now()
	id = l.add(parent, layer, name, start, start)
	return id, func() {
		end := time.Now().Sub(l.t0).Nanoseconds()
		l.mu.Lock()
		l.spans[id-1].End = end
		l.mu.Unlock()
	}
}

// selfByLayer sums, per layer, each span's duration minus the part of
// its interval covered by its child spans.
func (l *spanLog) selfByLayer() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range l.spans {
		covered := coveredWithin(children[s.ID], s.Start, s.End)
		self[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// coveredWithin measures the union of intervals clipped to [lo, hi].
func coveredWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	c := append([][2]int64(nil), iv...)
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, x := range c {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// write saves the spans and per-layer self times as one JSON document.
func (l *spanLog) write(path string) error {
	self := l.selfByLayer()
	l.mu.Lock()
	defer l.mu.Unlock()
	selfS := map[string]float64{}
	for k, v := range self {
		selfS[k] = v.Seconds()
	}
	doc := struct {
		Run   string             `json:"run"`
		Host  string             `json:"host"`
		SelfS map[string]float64 `json:"self_s"`
		Spans []span             `json:"spans"`
	}{l.run, hostLine(), selfS, l.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
