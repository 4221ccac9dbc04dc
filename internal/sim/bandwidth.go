package sim

import "fmt"

// BandwidthMeter models a shared bandwidth-limited channel (a PM DIMM's write
// path, a CXL link, a DRAM bus). Transfers serialize at the channel's byte
// rate; a transfer arriving while the channel is busy queues behind earlier
// transfers: a single-server FIFO whose service time is proportional to the
// bytes moved.
type BandwidthMeter struct {
	name        string
	bytesPerSec float64
	nextFree    Time
	bytes       uint64
}

// NewBandwidthMeter builds a meter for a channel with the given peak rate in
// bytes per second.
func NewBandwidthMeter(name string, bytesPerSec float64) *BandwidthMeter {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("sim: %s: bandwidth must be positive, got %g", name, bytesPerSec))
	}
	return &BandwidthMeter{name: name, bytesPerSec: bytesPerSec}
}

// TransferTime reports how long moving n bytes takes at the channel's peak
// rate, ignoring queueing.
func (b *BandwidthMeter) TransferTime(n int) Time {
	if n <= 0 {
		return 0
	}
	return Time(float64(n) / b.bytesPerSec * float64(Second))
}

// Transfer schedules an n-byte transfer arriving at arrive and returns its
// completion time, including queueing behind earlier transfers.
func (b *BandwidthMeter) Transfer(arrive Time, n int) Time {
	if n < 0 {
		panic(fmt.Sprintf("sim: %s: negative transfer size %d", b.name, n))
	}
	service := b.TransferTime(n)
	start := MaxTime(arrive, b.nextFree)
	done := start + service
	b.nextFree = done
	b.bytes += uint64(n)
	return done
}

// Bytes reports the total bytes transferred.
func (b *BandwidthMeter) Bytes() uint64 { return b.bytes }

// Reset clears state and statistics, keeping the configured rate.
func (b *BandwidthMeter) Reset() {
	b.nextFree, b.bytes = 0, 0
}

// GBs converts gigabytes-per-second (decimal GB) to bytes-per-second, the
// unit every meter is configured in. Published PM/CXL bandwidth figures use
// decimal GB/s.
func GBs(gb float64) float64 { return gb * 1e9 }
