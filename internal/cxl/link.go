package cxl

import "pax/internal/sim"

// Link models the host↔device transport: a fixed per-direction message
// latency, per-direction payload bandwidth, and the device-side message
// pipeline that the paper identifies as the Enzian prototype's bottleneck
// (§5.1: a 300 MHz FPGA must respond to a coherence message on nearly every
// cycle to keep up with host LLC miss rates).
type Link struct {
	prof sim.LinkProfile

	h2d      *sim.BandwidthMeter
	d2h      *sim.BandwidthMeter
	pipeline *sim.Pipeline
}

// NewLink builds a link from a profile.
func NewLink(prof sim.LinkProfile) *Link {
	return &Link{
		prof:     prof,
		h2d:      sim.NewBandwidthMeter(prof.Name+"-h2d", prof.Bandwidth),
		d2h:      sim.NewBandwidthMeter(prof.Name+"-d2h", prof.Bandwidth),
		pipeline: sim.NewPipeline(prof.DeviceHz, prof.PipelineDepth),
	}
}

// Profile reports the link's configuration.
func (l *Link) Profile() sim.LinkProfile { return l.prof }

// ToDevice carries a host→device message with opcode op, sent at `at`, and
// returns its arrival time at the device, after link latency and payload
// serialization.
func (l *Link) ToDevice(op Opcode, at sim.Time) sim.Time {
	return l.h2d.Transfer(at, op.WireBytes()) + l.prof.Latency
}

// ToHost carries a device→host message with opcode op, sent at `at`, and
// returns its arrival time at the host.
func (l *Link) ToHost(op Opcode, at sim.Time) sim.Time {
	return l.d2h.Transfer(at, op.WireBytes()) + l.prof.Latency
}

// DeviceProcess runs one message through the device's coherence pipeline,
// returning when the device has produced its response or side effect.
func (l *Link) DeviceProcess(arrive sim.Time) sim.Time {
	return l.pipeline.Serve(arrive)
}

// PipelineServed reports how many messages entered the device pipeline.
func (l *Link) PipelineServed() uint64 { return l.pipeline.Served() }

// H2DBandwidth exposes the host→device payload channel for utilization
// reporting in the bandwidth experiments.
func (l *Link) H2DBandwidth() *sim.BandwidthMeter { return l.h2d }

// D2HBandwidth exposes the device→host payload channel.
func (l *Link) D2HBandwidth() *sim.BandwidthMeter { return l.d2h }

// ResetStats clears the channel meters and the device pipeline.
func (l *Link) ResetStats() {
	l.h2d.Reset()
	l.d2h.Reset()
	l.pipeline.Reset()
}
