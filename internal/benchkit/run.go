package benchkit

import (
	"fmt"

	"pax/internal/sim"
	"pax/internal/stats"
	"pax/internal/workload"
)

// RunResult is the measured single-thread profile of one system on one
// workload: simulated per-op latency plus per-op shared-resource demands,
// which the scaling model turns into multi-thread throughput.
type RunResult struct {
	Ops int

	Elapsed sim.Time
	NsPerOp float64

	// Per-op shared-resource demands.
	PMWriteBytesPerOp float64
	PMReadBytesPerOp  float64
	LinkBytesPerOp    float64
	DeviceMsgsPerOp   float64

	// Mechanism-level counters for the stall/amplification experiments.
	FencesPerOp      float64
	LoggedBytesPerOp float64
	TrapsPerOp       float64

	// Cache behaviour (AMAT inputs).
	L1Miss, L2Miss, LLCMiss float64
	HBMHitRate              float64

	// Latencies is the per-op simulated latency histogram (picoseconds),
	// populated when RunSpec.RecordLatencies is set; MaxLatency is the
	// exact largest sample, which the histogram knows only to its bucket.
	Latencies  *stats.LatencyHistogram
	MaxLatency int64
}

// RunSpec describes one measurement run.
type RunSpec struct {
	Workload workload.Config
	// LoadKeys pre-populates the table with keys [0, LoadKeys).
	LoadKeys int
	// MeasureOps is the measured operation count.
	MeasureOps int
	// PersistEvery commits an epoch every N measured ops (snapshot systems
	// only; 0 disables).
	PersistEvery int
	// Pipelined selects PersistPipelined when available.
	Pipelined bool
	// RecordLatencies captures a per-operation simulated-latency histogram
	// (persist stalls are charged to the op that triggered them, showing
	// group commit's tail).
	RecordLatencies bool
	// PostLoad, if set, runs after the load phase and its commit, just
	// before measurement counters are snapshotted — the hook experiments use
	// to zero their own counters.
	PostLoad func()
}

// RunKV executes spec against fixture f and returns the measured profile.
func RunKV(f *Fixture, spec RunSpec) RunResult {
	gen := workload.NewGenerator(spec.Workload)

	// Load phase: populate the table, then commit it so the measurement
	// window starts from a persisted steady state. Snapshot systems also
	// persist periodically during the load so the undo log footprint stays
	// bounded by the epoch length, not the dataset size.
	for i := 0; i < spec.LoadKeys; i++ {
		k := uint64(i)
		if err := f.Map.Put(gen.MakeKey(k), gen.MakeValue(k)); err != nil {
			panic(fmt.Sprintf("benchkit: load put: %v", err))
		}
		if spec.PersistEvery > 0 && (i+1)%spec.PersistEvery == 0 {
			f.Persist()
		}
	}
	if spec.PersistEvery > 0 && f.Persist != nil {
		f.Persist()
	}
	if spec.PostLoad != nil {
		spec.PostLoad()
	}

	// Snapshot counters at the window start.
	f.PM.ResetStats()
	f.Hier.ResetStats()
	if f.Link != nil {
		f.Link.ResetStats()
	}
	if f.Dev != nil && f.Dev.HBM() != nil {
		f.Dev.HBM().Ratio.Reset()
	}
	fences0 := f.Fences()
	logged0 := f.LoggedBytes()
	traps0 := f.Traps()
	start := f.Core.Now()

	persist := f.Persist
	if spec.Pipelined && f.PersistPipelined != nil {
		persist = f.PersistPipelined
	}
	var hist *stats.LatencyHistogram
	var maxLatency int64
	if spec.RecordLatencies {
		hist = new(stats.LatencyHistogram)
	}
	for i := 0; i < spec.MeasureOps; i++ {
		opStart := f.Core.Now()
		op := gen.Next()
		switch op.Kind {
		case workload.Get:
			f.Map.Get(op.Key)
		case workload.Put:
			if err := f.Map.Put(op.Key, op.Value); err != nil {
				panic(fmt.Sprintf("benchkit: measure put: %v", err))
			}
		}
		if spec.PersistEvery > 0 && (i+1)%spec.PersistEvery == 0 {
			persist()
		}
		if hist != nil {
			// A negative simulated latency is a simulator bug; the
			// histogram would clamp it to zero and hide it.
			lat := int64(f.Core.Now() - opStart)
			if lat < 0 {
				panic(fmt.Sprintf("benchkit: negative simulated latency %d ps", lat))
			}
			hist.Observe(lat)
			maxLatency = max(maxLatency, lat)
		}
	}
	if spec.PersistEvery > 0 && spec.MeasureOps%spec.PersistEvery != 0 {
		persist()
	}

	elapsed := f.Core.Now() - start
	ops := float64(spec.MeasureOps)
	res := RunResult{
		Ops:     spec.MeasureOps,
		Elapsed: elapsed,
		NsPerOp: elapsed.Nanoseconds() / ops,

		PMWriteBytesPerOp: float64(f.PM.BytesWritten.Load()) / ops,
		PMReadBytesPerOp:  float64(f.PM.BytesRead.Load()) / ops,

		FencesPerOp:      float64(f.Fences()-fences0) / ops,
		LoggedBytesPerOp: float64(f.LoggedBytes()-logged0) / ops,
		TrapsPerOp:       float64(f.Traps()-traps0) / ops,
	}
	res.Latencies, res.MaxLatency = hist, maxLatency
	res.L1Miss, res.L2Miss, res.LLCMiss = f.Hier.MissRates()
	if f.Link != nil {
		wire := f.Link.H2DBandwidth().Bytes() + f.Link.D2HBandwidth().Bytes()
		res.LinkBytesPerOp = float64(wire) / ops
		res.DeviceMsgsPerOp = float64(f.Link.PipelineServed()) / ops
	}
	if f.Dev != nil && f.Dev.HBM() != nil {
		res.HBMHitRate = f.Dev.HBM().Ratio.HitRate()
	}
	return res
}

// Caps are the shared-resource ceilings the scaling model enforces.
type Caps struct {
	PMWriteBW  float64 // bytes/s
	PMReadBW   float64
	LinkBW     float64 // bytes/s; 0 = no accelerator link
	DeviceRate float64 // msgs/s; 0 = none
}

// Caps derives the fixture's resource ceilings from its configuration.
func (f *Fixture) Caps() Caps {
	c := Caps{
		PMWriteBW: f.PM.Config().WriteBandwidth,
		PMReadBW:  f.PM.Config().ReadBandwidth,
	}
	if f.Link != nil {
		prof := f.Link.Profile()
		c.LinkBW = prof.Bandwidth
		c.DeviceRate = prof.DeviceHz
	}
	return c
}

// ScalePoint is the throughput at one thread count, with the binding
// bottleneck.
type ScalePoint struct {
	Mops       float64
	Bottleneck string
}

// Scale applies the roofline model (§5.1's bottleneck analysis): N threads
// each run at the single-thread rate until a shared ceiling binds — PM write
// or read bandwidth, accelerator link bandwidth, or the device's coherence-
// message pipeline rate.
func Scale(r RunResult, caps Caps, threads []int) []ScalePoint {
	rate1 := float64(r.Ops) / r.Elapsed.Seconds() // ops/s, one thread
	type ceiling struct {
		name string
		rate float64
	}
	ceilings := []ceiling{}
	if r.PMWriteBytesPerOp > 0 {
		ceilings = append(ceilings, ceiling{"pm-write-bw", caps.PMWriteBW / r.PMWriteBytesPerOp})
	}
	if r.PMReadBytesPerOp > 0 {
		ceilings = append(ceilings, ceiling{"pm-read-bw", caps.PMReadBW / r.PMReadBytesPerOp})
	}
	if caps.LinkBW > 0 && r.LinkBytesPerOp > 0 {
		ceilings = append(ceilings, ceiling{"link-bw", caps.LinkBW / r.LinkBytesPerOp})
	}
	if caps.DeviceRate > 0 && r.DeviceMsgsPerOp > 0 {
		ceilings = append(ceilings, ceiling{"device-pipeline", caps.DeviceRate / r.DeviceMsgsPerOp})
	}

	out := make([]ScalePoint, 0, len(threads))
	for _, n := range threads {
		rate := rate1 * float64(n)
		binding := "cpu"
		for _, c := range ceilings {
			if c.rate < rate {
				rate = c.rate
				binding = c.name
			}
		}
		out = append(out, ScalePoint{Mops: rate / 1e6, Bottleneck: binding})
	}
	return out
}
