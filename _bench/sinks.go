package main

import (
	"greensprint/internal/obs"
)

// spanSink forwards every event to next inside a span, so the traced
// run times a sink the program is handed without changing what it
// receives.
type spanSink struct {
	name string
	next obs.Sink
	ln   *lane
}

func (s spanSink) Emit(ev obs.Event) error {
	s.ln.begin(s.name)
	err := s.next.Emit(ev)
	s.ln.end()
	return err
}

// streamSink forwards every event to next and folds it into a
// streamCheck. It is the outermost sink in both the traced and the
// untraced run.
type streamSink struct {
	next obs.Sink
	st   *streamCheck
	tr   *tracer
}

func (s streamSink) Emit(ev obs.Event) error {
	s.st.observe(ev)
	s.tr.add("obs.events", 1)
	return s.next.Emit(ev)
}

// chaosEvent is one fault or recovery transition as the stream reports
// it.
type chaosEvent struct {
	Epoch  int
	Kind   string // "fault" or "recover"
	Mode   string
	Target int
}

// streamCheck accumulates what the event stream says about a run: the
// epoch numbering, the energy the burst epochs drew from each source,
// and the chaos transitions.
type streamCheck struct {
	next    int // the epoch number the next epoch event must carry
	gaps    int // epoch events whose number was not next
	epochs  int
	chaos   []chaosEvent
	greenWh float64
	battWh  float64
	gridWh  float64
}

func (s *streamCheck) observe(ev obs.Event) {
	if ev.Chaos != "" {
		s.chaos = append(s.chaos, chaosEvent{ev.Epoch, ev.Chaos, ev.ChaosMode, ev.ChaosTarget})
		return
	}
	if ev.Epoch != s.next {
		s.gaps++
	}
	s.next = ev.Epoch + 1
	s.epochs++
	if ev.InBurst {
		// Power fields are per green server; the energy account is
		// rack level and, by design, covers the burst epochs' source
		// allocation only (idle epochs ride the grid outside it).
		h := float64(ev.Servers) * ev.EpochSeconds / 3600
		s.greenWh += ev.GreenW * h
		s.battWh += ev.BatteryW * h
		s.gridWh += ev.GridW * h
	}
}
