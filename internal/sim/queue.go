package sim

// Pipeline models a fixed-rate, fully pipelined server: one request may begin
// per cycle, and each takes depth cycles to complete. This matches the paper's
// description of the FPGA coherence-message pipeline ("respond to coherence
// messages on nearly every clock cycle").
type Pipeline struct {
	cycle     Time // duration of one clock cycle
	depth     int  // pipeline depth in cycles
	nextIssue Time
	served    uint64
}

// NewPipeline builds a pipeline clocked at hz with the given depth in cycles.
func NewPipeline(hz float64, depth int) *Pipeline {
	if hz <= 0 {
		panic("sim: pipeline clock must be positive")
	}
	if depth < 1 {
		depth = 1
	}
	return &Pipeline{
		cycle: Time(float64(Second) / hz),
		depth: depth,
	}
}

// Serve schedules a request arriving at arrive and returns its completion
// time: it issues at the first free cycle at-or-after arrive and completes
// depth cycles later.
func (p *Pipeline) Serve(arrive Time) Time {
	issue := MaxTime(arrive, p.nextIssue)
	p.nextIssue = issue + p.cycle
	p.served++
	return issue + Time(p.depth)*p.cycle
}

// Served reports the number of requests issued into the pipeline.
func (p *Pipeline) Served() uint64 { return p.served }

// Reset returns the pipeline to idle, clearing statistics.
func (p *Pipeline) Reset() { p.nextIssue = 0; p.served = 0 }
