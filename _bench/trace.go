package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// With tracing off every method returns at once without reading the
// clock, so the untraced run pays one branch per boundary.
//
// Spans are kept in memory and written out when the run ends. Per-event
// spans (sink emits) are far too many to keep one by one, so each name
// keeps its first spanKeep spans for the file and folds every span into
// per-name totals; self time is exact either way, because a span's
// child time is accumulated on the open parent when the child ends.
type tracer struct {
	on bool
	t0 time.Time

	mu     sync.Mutex
	nextID int64
	spans  []spanRec
	kept   map[string]int
	total  map[string]time.Duration // summed span durations
	self   map[string]time.Duration // summed span durations minus child coverage
	counts map[string]float64
}

// spanKeep is how many spans of one name the span file keeps.
const spanKeep = 2000

type spanRec struct {
	ID, Parent int64
	Name       string
	Start, End time.Duration // since the tracer's start
}

// quiet is a lane that records nothing, for the untimed reference runs
// the checks need.
var quiet = newTracer(false).lane(0)

func newTracer(on bool) *tracer {
	return &tracer{
		on:     on,
		t0:     time.Now(),
		kept:   map[string]int{},
		total:  map[string]time.Duration{},
		self:   map[string]time.Duration{},
		counts: map[string]float64{},
	}
}

// lane is one goroutine's stack of open spans. Spans opened on a lane
// nest: a span's parent is the span open beneath it, or the lane's
// root parent for the outermost one.
type lane struct {
	tr    *tracer
	root  int64
	stack []openSpan
}

type openSpan struct {
	id    int64
	name  string
	start time.Duration
	child time.Duration
}

// lane opens a new span stack whose outermost spans record parent as
// their parent (0 for none). Child time does not cross lanes: lanes run
// concurrently, so their spans overlap their parent's siblings.
func (t *tracer) lane(parent int64) *lane { return &lane{tr: t, root: parent} }

// begin opens a span named name.
func (l *lane) begin(name string) {
	if !l.tr.on {
		return
	}
	l.tr.mu.Lock()
	l.tr.nextID++
	id := l.tr.nextID
	l.tr.mu.Unlock()
	l.stack = append(l.stack, openSpan{id: id, name: name, start: time.Since(l.tr.t0)})
}

// end closes the innermost open span.
func (l *lane) end() {
	if !l.tr.on {
		return
	}
	now := time.Since(l.tr.t0)
	s := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	d := now - s.start
	parent := l.root
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += d
		parent = l.stack[n-1].id
	}
	t := l.tr
	t.mu.Lock()
	t.total[s.name] += d
	t.self[s.name] += d - s.child
	if t.kept[s.name] < spanKeep {
		t.kept[s.name]++
		t.spans = append(t.spans, spanRec{ID: s.id, Parent: parent, Name: s.name, Start: s.start, End: now})
	}
	t.mu.Unlock()
}

// top returns the innermost open span's id (the lane's root parent when
// none is open), for lanes started beneath it.
func (l *lane) top() int64 {
	if n := len(l.stack); n > 0 {
		return l.stack[n-1].id
	}
	return l.root
}

// add records a count at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// writeSpans writes the kept spans as JSON Lines, ordered by start.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.ID, s.Parent, s.Name, int64(s.Start), int64(s.End))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
