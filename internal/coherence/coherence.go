// Package coherence defines the vocabulary shared between the host cache
// hierarchy and the memory/accelerator homes: MESI line states, snoop
// operations, and the Home interface through which the hierarchy reaches the
// owner of a physical address range.
//
// For ordinary DRAM or PM ranges the home is the memory controller; for vPM
// ranges the home is the PAX device, which is exactly how CXL.cache places an
// accelerator in the coherence domain — the device is the home agent for the
// addresses it exposes, so every exclusive-ownership request for those lines
// is visible to it (the paper's interposition hook).
package coherence

import (
	"fmt"

	"pax/internal/sim"
)

// State is a MESI cache-line state.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: read-only copy; other caches may hold copies.
	Shared
	// Exclusive: sole clean copy; may be silently upgraded to Modified.
	Exclusive
	// Modified: sole copy, dirty with respect to the home.
	Modified
)

// String returns the canonical one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// CanWrite reports whether a store may be performed on a line in state s
// without an upgrade request.
func (s State) CanWrite() bool { return s == Exclusive || s == Modified }

// SnoopOp is a home-to-host (or core-to-core) snoop request kind, matching
// the CXL.cache H2D request semantics the paper relies on.
type SnoopOp uint8

const (
	// SnpData asks the target to downgrade to Shared and forward current
	// data if it holds the line dirty (CXL.cache SnpData). PAX issues this
	// at persist() to collect modified lines without evicting them.
	SnpData SnoopOp = iota
	// SnpInv asks the target to invalidate the line and forward current data
	// if dirty (CXL.cache SnpInv). Issued on behalf of exclusive requesters.
	SnpInv
)

// String names the snoop op with its CXL.cache spelling.
func (op SnoopOp) String() string {
	switch op {
	case SnpData:
		return "SnpData"
	case SnpInv:
		return "SnpInv"
	default:
		return fmt.Sprintf("SnoopOp(%d)", uint8(op))
	}
}

// LineSize is the coherence granule in bytes.
const LineSize = sim.CacheLineSize

// LineAddr converts a byte address to its line-aligned base address.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineSize-1) }

// FillResult is the home's reply to a line fetch.
type FillResult struct {
	// State the requester is granted: Shared, or Exclusive for RFO fetches.
	// Homes that must observe every first store (the PAX device) grant
	// Shared on read fetches so that the first store forces an upgrade
	// message; memory-controller homes may grant Exclusive to a sole reader.
	State State
	// Done is the simulated completion time of the fill.
	Done sim.Time
}

// Home is the owner of a physical address range: it serves line fills,
// accepts write-backs, and observes exclusive-ownership upgrades. All
// addresses passed to a Home are line-aligned.
type Home interface {
	// FetchLine serves a fill for the line at addr into buf (LineSize bytes).
	// excl requests ownership for modification (RdOwn); the home must treat
	// an exclusive fetch exactly like an upgrade for interposition purposes.
	FetchLine(addr uint64, excl bool, buf []byte, at sim.Time) FillResult

	// UpgradeLine observes a Shared→Modified upgrade for the line at addr
	// (the requester already holds current data). It returns the time at
	// which the upgrade is acknowledged.
	UpgradeLine(addr uint64, at sim.Time) sim.Time

	// WriteBackLine accepts an evicted dirty line. It returns the time at
	// which the write-back is accepted (not necessarily durable).
	WriteBackLine(addr uint64, data []byte, at sim.Time) sim.Time
}

// SnoopResult reports the outcome of a snoop into the host hierarchy.
type SnoopResult struct {
	// Present reports whether any host cache held the line.
	Present bool
	// Dirty reports whether the forwarded data was modified with respect to
	// the home; when true, Data holds the current line contents.
	Dirty bool
	// Data is the current line value if Dirty (and may hold the clean value
	// if Present); undefined when !Present.
	Data [LineSize]byte
	// Done is the simulated completion time of the snoop.
	Done sim.Time
}

// Snooper is implemented by the host hierarchy so a device can issue
// device-to-host snoops (the persist()-time RdShared recall in §3.3).
type Snooper interface {
	SnoopLine(addr uint64, op SnoopOp, at sim.Time) SnoopResult
}
