package sim

import "fmt"

// FeedSimulator adapts an external data producer to the Simulator
// interface: an application that already has its own simulation loop pushes
// each time-step's fields into Feed, and the in-situ pipeline pulls them
// through Step. This is the integration point for codes the library does
// not ship (the role ADIOS-style I/O layers play for the paper's systems).
type FeedSimulator struct {
	name     string
	vars     []string
	elements int
	ranges   [][2]float64
	ch       chan []Field
	steps    int
}

// NewFeed creates the adapter and the channel the producer writes to.
// buffer is the channel capacity (the in-memory step queue between the
// producer and the pipeline).
func NewFeed(name string, vars []string, elements int, ranges [][2]float64, buffer int) (*FeedSimulator, chan<- []Field, error) {
	if len(vars) == 0 {
		return nil, nil, fmt.Errorf("sim: feed needs at least one variable")
	}
	if len(ranges) != len(vars) {
		return nil, nil, fmt.Errorf("sim: %d ranges for %d variables", len(ranges), len(vars))
	}
	if elements <= 0 {
		return nil, nil, fmt.Errorf("sim: %d elements", elements)
	}
	if buffer < 0 {
		buffer = 0
	}
	f := &FeedSimulator{
		name: name, vars: vars, elements: elements,
		ranges: ranges, ch: make(chan []Field, buffer),
	}
	return f, f.ch, nil
}

// Name implements Simulator.
func (f *FeedSimulator) Name() string { return f.name }

// Vars implements Simulator.
func (f *FeedSimulator) Vars() []string { return f.vars }

// Elements implements Simulator.
func (f *FeedSimulator) Elements() int { return f.elements }

// Ranges implements Simulator.
func (f *FeedSimulator) Ranges() [][2]float64 { return f.ranges }

// Step implements Simulator: it blocks until the producer supplies the
// next time-step. Malformed steps (wrong variable count or array length)
// panic, because by then the producer has already violated the contract it
// declared at NewFeed and no local recovery is possible. A closed channel
// also panics: the pipeline's Steps count must not exceed the number of
// steps the producer sends.
func (f *FeedSimulator) Step(nWorkers int) []Field {
	fields, ok := <-f.ch
	if !ok {
		panic(fmt.Sprintf("sim: feed %q closed after %d steps but the pipeline asked for more", f.name, f.steps))
	}
	if len(fields) != len(f.vars) {
		panic(fmt.Sprintf("sim: feed %q step %d has %d fields, declared %d", f.name, f.steps, len(fields), len(f.vars)))
	}
	for _, fd := range fields {
		if len(fd.Data) != f.elements {
			panic(fmt.Sprintf("sim: feed %q step %d field %q has %d elements, declared %d",
				f.name, f.steps, fd.Name, len(fd.Data), f.elements))
		}
	}
	f.steps++
	return fields
}

// StepsSeen reports how many steps have been consumed.
func (f *FeedSimulator) StepsSeen() int { return f.steps }

var _ Simulator = (*FeedSimulator)(nil)
