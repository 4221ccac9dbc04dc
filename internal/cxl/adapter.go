package cxl

import "fmt"

// This file implements the paper's "adapter" layer (§4): the Enzian
// prototype observes ThunderX-1 native coherence messages, which are lower
// level and microarchitecture-specific; an adapter at the FPGA filters and
// translates them into CXL.cache semantics so the PAX device logic is
// portable to commodity CXL hardware unchanged. The software prototype (Pin)
// uses the same adapter so both paths exercise identical device code.

// NativeOp is a ThunderX/ECI-style native coherence message kind — a
// deliberately lower-level vocabulary than CXL.cache, including messages CXL
// never exposes (which the adapter must filter out).
type NativeOp uint8

const (
	// NativeInvalid is the zero value.
	NativeInvalid NativeOp = iota
	// NativeLoadShared: a core's read miss reached the coherence bus.
	NativeLoadShared
	// NativeLoadExclusive: a core's write miss (read line + ownership).
	NativeLoadExclusive
	// NativeUpgrade: a core upgrades a Shared line for writing.
	NativeUpgrade
	// NativeVictimClean: clean line victimized from the host hierarchy.
	NativeVictimClean
	// NativeVictimDirty: dirty line victimized, payload attached.
	NativeVictimDirty
	// NativeSnoopShared: home requests downgrade-to-Shared with data.
	NativeSnoopShared
	// NativeSnoopInvalidate: home requests invalidation.
	NativeSnoopInvalidate
	// NativePrefetchHint: microarchitectural prefetch probe. CXL.cache has
	// no equivalent; the adapter filters it.
	NativePrefetchHint
	// NativeBarrier: interconnect ordering token, host-internal only;
	// filtered.
	NativeBarrier
)

var nativeNames = map[NativeOp]string{
	NativeInvalid:         "NativeInvalid",
	NativeLoadShared:      "LoadShared",
	NativeLoadExclusive:   "LoadExclusive",
	NativeUpgrade:         "Upgrade",
	NativeVictimClean:     "VictimClean",
	NativeVictimDirty:     "VictimDirty",
	NativeSnoopShared:     "SnoopShared",
	NativeSnoopInvalidate: "SnoopInvalidate",
	NativePrefetchHint:    "PrefetchHint",
	NativeBarrier:         "Barrier",
}

// String names the native op.
func (o NativeOp) String() string {
	if s, ok := nativeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("NativeOp(%d)", uint8(o))
}

// NativeMessage is one message as observed on the native coherence bus.
type NativeMessage struct {
	Op   NativeOp
	Addr uint64
	Data []byte
}

// Adapter translates native coherence messages into CXL.cache messages. It
// is stateless: translation is a pure per-message mapping plus filtering,
// which is what makes the device logic portable.
type Adapter struct {
	// Filtered counts native messages with no CXL equivalent that were
	// dropped rather than forwarded.
	Filtered uint64
	// Translated counts successfully translated messages.
	Translated uint64
}

// ErrFiltered is returned (wrapped) for native messages that have no CXL
// equivalent and must not reach the device.
var ErrFiltered = fmt.Errorf("cxl: native message filtered (no CXL equivalent)")

// Translate maps a native message to its CXL.cache equivalent. Messages with
// no equivalent return ErrFiltered; malformed messages return a detailed
// error.
func (a *Adapter) Translate(n NativeMessage) (Message, error) {
	if n.Addr%DataBytes != 0 {
		return Message{}, fmt.Errorf("cxl: native %v address %#x not line-aligned", n.Op, n.Addr)
	}
	var op Opcode
	switch n.Op {
	case NativeLoadShared:
		op = RdShared
	case NativeLoadExclusive:
		op = RdOwn
	case NativeUpgrade:
		op = ItoMWr
	case NativeVictimClean:
		op = CleanEvict
	case NativeVictimDirty:
		op = DirtyEvict
	case NativeSnoopShared:
		op = SnpData
	case NativeSnoopInvalidate:
		op = SnpInv
	case NativePrefetchHint, NativeBarrier:
		a.Filtered++
		return Message{}, fmt.Errorf("%w: %v", ErrFiltered, n.Op)
	default:
		return Message{}, fmt.Errorf("cxl: unknown native op %v", n.Op)
	}
	// A data-carrying opcode needs a full line on the native side. Native
	// protocols also attach speculative payloads where CXL carries none;
	// those are dropped with the rest of the native bytes.
	if op.CarriesData() && len(n.Data) != DataBytes {
		return Message{}, fmt.Errorf("cxl: native %v carries %d bytes, want %d", n.Op, len(n.Data), DataBytes)
	}
	m := Message{Op: op, Addr: n.Addr}
	if err := m.Validate(); err != nil {
		return Message{}, err
	}
	a.Translated++
	return m, nil
}

// TranslateBatch translates a native message stream, silently dropping
// filtered messages and stopping at the first malformed one.
func (a *Adapter) TranslateBatch(ns []NativeMessage) ([]Message, error) {
	out := make([]Message, 0, len(ns))
	for _, n := range ns {
		m, err := a.Translate(n)
		switch {
		case err == nil:
			out = append(out, m)
		case isFiltered(err):
			continue
		default:
			return out, err
		}
	}
	return out, nil
}

func isFiltered(err error) bool {
	for err != nil {
		if err == ErrFiltered {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
