// Package cxl models the transport between the host CPU and a cache-coherent
// accelerator: a CXL.cache-style message vocabulary and a latency/bandwidth
// link model with a device-side message pipeline. The paper's Enzian
// prototype (§4) translates native ThunderX-1 coherence messages into this
// vocabulary at the FPGA. The model prices only the CXL messages, so the
// Enzian profile differs from CXL only in its link numbers (sim.EnzianLink:
// latency, link bandwidth and the device's message rate), which is what
// Fig. 2a varies.
package cxl

// Opcode is a CXL.cache message opcode. The set is the practical subset PAX
// needs: host-to-device (H2D) requests for line ownership and eviction, and
// device-to-host (D2H) snoops, plus the response opcodes.
type Opcode uint8

const (
	// OpInvalid is the zero value; sending it is a bug.
	OpInvalid Opcode = iota

	// H2D requests (the host CPU's cache home agent → device home).

	// RdShared requests a line for reading; the device may grant Shared.
	RdShared
	// RdOwn requests a line for modification (read-for-ownership); granting
	// it tells the device the host will produce a new value (the undo-log
	// trigger).
	RdOwn
	// ItoMWr requests ownership of a line the host already holds Shared
	// (upgrade without data transfer); also an undo-log trigger.
	ItoMWr
	// DirtyEvict writes a modified line back to the device.
	DirtyEvict

	// D2H requests (device → host CPU).

	// SnpData asks the host to downgrade a line to Shared and forward the
	// current value (issued for every epoch-modified line at persist()).
	SnpData

	// Responses.

	// GO grants ownership or data to the host (device → host response).
	GO
	// RspData carries line data from host to device after a snoop.
	RspData
	// RspMiss reports the host no longer holds a snooped line.
	RspMiss

	// CfgWr is an MMIO doorbell write (CXL.io): the host posting a command
	// (e.g. "persist epoch now") to a device register. Not a coherence
	// message; carried here because it shares the physical link.
	CfgWr
)

// CarriesData reports whether the message includes a 64-byte line payload.
func (o Opcode) CarriesData() bool {
	switch o {
	case DirtyEvict, RspData, GO:
		return true
	}
	return false
}

// Message sizes on the wire, used for bandwidth accounting: CXL.cache slots
// are 16-byte granules; a header is one slot, a data payload is a full line.
const (
	HeaderBytes = 16
	DataBytes   = 64
)

// WireBytes reports the size on the link of a message with this opcode. A
// message carries no payload bytes: the model prices it by its size, which
// its opcode fixes, and the line values themselves move through the cache
// and device models.
func (o Opcode) WireBytes() int {
	n := HeaderBytes
	if o.CarriesData() {
		n += DataBytes
	}
	return n
}
