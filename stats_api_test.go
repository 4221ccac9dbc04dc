package pax_test

import (
	"strings"
	"testing"

	"pax"
)

func TestPoolStatsSnapshot(t *testing.T) {
	pool, err := pax.MapPool("", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	m, err := pax.NewMap(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := m.Put([]byte{byte(i), 'k'}, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := pool.Persist()
	if err != nil {
		t.Fatal(err)
	}

	s := pool.Stats()
	if s.DevicePersists == 0 || s.DeviceLogAppends == 0 || s.HostUpgrades == 0 {
		t.Fatalf("counters did not move: %+v", s)
	}
	if s.DurableEpoch != st.Epoch || s.Epoch != st.Epoch+1 {
		t.Fatalf("epoch bookkeeping: stats %d/%d, persist reported %d", s.Epoch, s.DurableEpoch, st.Epoch)
	}
	if s.DeviceHBMMisses != s.DeviceFillsServed-s.DeviceHBMHits {
		t.Fatalf("HBM miss derivation inconsistent: %+v", s)
	}
	if s.LogCapacityEntries == 0 || s.LogAppends == 0 {
		t.Fatalf("log counters did not move: %+v", s)
	}

	var b strings.Builder
	pool.StatsRegistry().WriteTo(&b)
	text := b.String()
	for _, metric := range []string{"pax_device_persists", "pax_durable_epoch", "pax_host_upgrades", "pax_log_appends_total"} {
		if !strings.Contains(text, metric+" ") {
			t.Fatalf("registry missing %s:\n%s", metric, text)
		}
	}
}

// TestPoolStatsCountEachEventOnce pins where each re-sourced PoolStats field
// and pax_* gauge comes from: undo appends are the log's own count, HBM hits
// the cache's own (so a pool without HBM has none), and a persist's sync is
// timed once per device persist.
func TestPoolStatsCountEachEventOnce(t *testing.T) {
	const stride = 2 << 20 // one host LLC set apart: 32768 sets of 64 B lines
	for _, hbm := range []int{32 << 20, 0} {
		// 32 MiB of HBM has twice the LLC's sets, so the conflict lines
		// below spread over two HBM sets and stay in the device cache.
		pool, err := pax.MapPool("", pax.Options{DataSize: 32 << 20, LogSize: 1 << 20, Profile: pax.ProfileCXL, HBMSize: hbm})
		if err != nil {
			t.Fatal(err)
		}
		base, err := pool.Alloc(13 * stride)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		for i := uint64(0); i < 12; i++ {
			pool.Store(base+i*stride, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7})
		}
		if _, err := pool.Persist(); err != nil {
			t.Fatal(err)
		}
		// Twelve lines in one 11-way LLC set: the first was evicted, so
		// loading it again is a device fill the HBM can serve.
		pool.Load(base, buf)
		if _, err := pool.Persist(); err != nil {
			t.Fatal(err)
		}

		s := pool.Stats()
		m := pool.StatsRegistry().Snapshot()
		if s.DeviceLogAppends == 0 || s.DeviceLogAppends != s.LogAppends {
			t.Errorf("HBM %d: DeviceLogAppends = %d, LogAppends = %d; want equal and nonzero", hbm, s.DeviceLogAppends, s.LogAppends)
		}
		if m["pax_device_log_appends"] != m["pax_log_appends_total"] {
			t.Errorf("HBM %d: pax_device_log_appends = %g, pax_log_appends_total = %g", hbm, m["pax_device_log_appends"], m["pax_log_appends_total"])
		}
		if s.DeviceHBMHits+s.DeviceHBMMisses != s.DeviceFillsServed {
			t.Errorf("HBM %d: hits %d + misses %d != fills %d", hbm, s.DeviceHBMHits, s.DeviceHBMMisses, s.DeviceFillsServed)
		}
		if hbm > 0 && (s.DeviceHBMHits == 0 || s.DeviceHBMMisses == 0) {
			t.Errorf("HBM %d: %d hits, %d misses; want both", hbm, s.DeviceHBMHits, s.DeviceHBMMisses)
		}
		if hbm == 0 && (s.DeviceHBMHits != 0 || s.DeviceFillsServed == 0) {
			t.Errorf("no HBM: %d hits over %d fills; want none over some", s.DeviceHBMHits, s.DeviceFillsServed)
		}
		if m["pax_device_hbm_hits"] != float64(s.DeviceHBMHits) {
			t.Errorf("HBM %d: pax_device_hbm_hits = %g, PoolStats %d", hbm, m["pax_device_hbm_hits"], s.DeviceHBMHits)
		}
		if got, want := m["pax_persist_sync_ns_count"], m["pax_device_persists"]; got == 0 || got != want {
			t.Errorf("HBM %d: pax_persist_sync_ns_count = %g, pax_device_persists = %g; want equal and nonzero", hbm, got, want)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
