package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval at a layer boundary, recorded by the benchmark around
// a call into that layer. Spans of one operation share Op. A replayed span
// did not run inside its parent: the benchmark issued the same call with the
// same inputs right after the operation and laid the measured duration inside
// the parent's interval, because it cannot time a call it does not make.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"` // 0: top of its operation
	Op       int64  `json:"op"`     // 0: not tied to one operation (vfs calls)
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the trace kept in memory; a run that would exceed it stops
// recording and says so.
const maxSpans = 400000

// tracer keeps spans in memory until the run ends. A nil tracer, or one that
// is switched off, records nothing, so untraced phases pay one atomic load.
type tracer struct {
	t0      time.Time
	on      atomic.Bool
	nextOp  atomic.Int64
	mu      sync.Mutex
	spans   []span
	kinds   map[int64]opKind // operations whose span tree is complete
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), kinds: make(map[int64]opKind)} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// newOp hands out the identifier the spans of one operation share.
func (t *tracer) newOp() int64 { return t.nextOp.Add(1) }

// complete marks an operation as having all the spans its kind should have;
// only complete operations enter the layer sums.
func (t *tracer) complete(op int64, kind opKind) {
	t.mu.Lock()
	t.kinds[op] = kind
	t.mu.Unlock()
}

// begin opens a span that starts at t0; end closes it. The id is known before
// the call returns, so a callee reached through an interface the benchmark
// does not control (an HTTP header, a commit message) can name it as parent.
func (t *tracer) begin(op, parent int64, name, layer string, t0 time.Time) int64 {
	if !t.enabled() {
		return 0
	}
	start := int64(t0.Sub(t.t0))
	return t.add(span{Op: op, Parent: parent, Name: name, Layer: layer, Start: start, End: start})
}

func (t *tracer) end(id int64, t1 time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(t1.Sub(t.t0))
	t.mu.Unlock()
}

// record adds a span that ran from t0 to t1 and returns its id.
func (t *tracer) record(op, parent int64, name, layer string, t0, t1 time.Time) int64 {
	id := t.begin(op, parent, name, layer, t0)
	t.end(id, t1)
	return id
}

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// call is one replayed call: the layer it entered and how long it took.
type call struct {
	layer, name string
	d           time.Duration
}

// replayed lays calls measured after the operation inside parent, one after
// another from the parent's start, and returns their span ids.
func (t *tracer) replayed(parent int64, calls ...call) []int64 {
	ids := make([]int64, len(calls))
	if !t.enabled() || parent == 0 {
		return ids
	}
	t.mu.Lock()
	p := t.spans[parent-1]
	t.mu.Unlock()
	at := p.Start
	for i, c := range calls {
		ids[i] = t.add(span{Parent: parent, Op: p.Op, Name: c.name, Layer: c.layer, Start: at, End: at + int64(c.d), Replayed: true})
		at += int64(c.d)
	}
	return ids
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Dropped int64  `json:"dropped_spans"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// adoptVFS gives every vfs span, for the trace file, the latest recorded
// durable-layer span that contains it as parent. The vfs decorator cannot
// know which operation a write belongs to: group commit lets one client flush
// for another. Self times do not depend on this choice (see selfTimes).
func (t *tracer) adoptVFS() {
	t.mu.Lock()
	defer t.mu.Unlock()
	var hosts []span
	for _, s := range t.spans {
		if s.hostsVFS() {
			hosts = append(hosts, s)
		}
	}
	sort.Slice(hosts, func(a, b int) bool { return hosts[a].Start < hosts[b].Start })
	for i := range t.spans {
		s := &t.spans[i]
		if s.Layer != "vfs" {
			continue
		}
		// One host per client can be open at a time, so a short scan back
		// from the last host that starts before the vfs span finds it.
		j := sort.Search(len(hosts), func(k int) bool { return hosts[k].Start > s.Start })
		for k := j - 1; k >= 0 && k >= j-8; k-- {
			if hosts[k].End >= s.End {
				s.Parent, s.Op = hosts[k].ID, hosts[k].Op
				break
			}
		}
	}
}

// hostsVFS reports whether the span timed a call that does file I/O itself.
func (s span) hostsVFS() bool { return s.Layer == "durable" && !s.Replayed }

// spanMs returns the durations, in milliseconds, of the spans with a name.
func (t *tracer) spanMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// layerSelf returns, for one kind of operation, the self times of every layer
// in milliseconds, one value per complete operation: each span's duration
// minus the part of it its children cover, summed by layer. "total" holds the
// durations of the operations' top spans.
func (t *tracer) layerSelf(kind opKind) map[string][]float64 {
	out := make(map[string][]float64)
	for op, layers := range t.selfTimes() {
		if k, ok := t.kinds[op]; !ok || k != kind {
			continue
		}
		var total time.Duration
		for layer, d := range layers {
			out[layer] = append(out[layer], ms(d))
			total += d
		}
		out["total"] = append(out["total"], ms(total))
	}
	return out
}

// selfTimes returns, per operation, the self time of every layer. A span that
// does file I/O is covered by every vfs span that overlaps it in time, whoever
// issued it, and that covered part is the operation's vfs time: a commit that
// waits for another client's fsync waits for the disk all the same.
func (t *tracer) selfTimes() map[int64]map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	var io []span
	for _, s := range t.spans {
		if s.Layer == "vfs" {
			io = append(io, s)
		} else if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sort.Slice(io, func(a, b int) bool { return io[a].Start < io[b].Start })
	var longest int64
	for _, s := range io {
		if d := s.End - s.Start; d > longest {
			longest = d
		}
	}
	out := make(map[int64]map[string]time.Duration)
	for _, s := range t.spans {
		if s.Op == 0 || s.Layer == "vfs" {
			continue
		}
		m := out[s.Op]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Op] = m
		}
		kids := children[s.ID]
		if s.hostsVFS() {
			// An overlapping vfs span starts before the host ends and no
			// earlier than the longest vfs span before the host starts.
			lo := sort.Search(len(io), func(k int) bool { return io[k].Start >= s.Start-longest })
			var over []span
			for k := lo; k < len(io) && io[k].Start < s.End; k++ {
				if io[k].End > s.Start {
					over = append(over, io[k])
				}
			}
			m["vfs"] += covered(s, over)
			kids = append(kids, over...)
		}
		m[s.Layer] += s.dur() - covered(s, kids)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total, end int64
	end = p.Start
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < end {
			s = end
		}
		if e > p.End {
			e = p.End
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return time.Duration(total)
}
