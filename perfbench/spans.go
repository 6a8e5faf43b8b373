package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanRec is one recorded span: a call into one layer, timed from the
// benchmark's side of the boundary. Spans of one request or task share Req.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
}

// layer is the span name's package prefix ("store.get" → "store").
func (s spanRec) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	req    string
	start  time.Time
}

// begin starts a span; parent is 0 for a root span.
func (t *tracer) begin(name, req string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return openSpan{t: t, id: id, parent: parent, name: name, req: req, start: time.Now()}
}

// end closes the span and returns its duration.
func (s openSpan) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.add(spanRec{
		ID: s.id, Parent: s.parent, Name: s.name, Req: s.req,
		Start: s.start.Sub(s.t.epoch).Nanoseconds(), End: now.Sub(s.t.epoch).Nanoseconds(),
	})
	return now.Sub(s.start)
}

// add records a finished span, for spans whose times come from elsewhere
// (the program's own obs.Tracer spans).
func (t *tracer) add(s spanRec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since converts a wall time to the tracer's epoch offset.
func (t *tracer) since(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

// traceLayers are the layers whose self time the traced run reports.
var traceLayers = []string{"scenario", "canon", "store", "engine", "flow", "topo", "dynamics", "sweep", "dispatch", "serve", "http"}

// selfTimes is each layer's self time: its spans' durations minus the part
// of each span its child spans cover.
func selfTimes(spans []spanRec) map[string]time.Duration {
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's interval.
func covered(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// finishTrace writes the spans as JSONL and reports each layer's share of
// the total self time.
func finishTrace(tr *tracer, cfg runConfig, out *outcome) error {
	tr.mu.Lock()
	spans := append([]spanRec(nil), tr.spans...)
	tr.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	path := filepath.Join(cfg.TmpDir, fmt.Sprintf("spans-%s-seed%d-%d.jsonl", cfg.Workload, cfg.Seed, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := selfTimes(spans)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range traceLayers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		out.set("trace.self_share."+l, share)
		out.sample("trace.self_ms."+l, durMs(self[l]))
	}
	out.set("trace.spans", float64(len(spans)))
	out.Notes["spans"] = path
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}
