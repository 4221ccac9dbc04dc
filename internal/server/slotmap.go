package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"pax/internal/seglog"
)

// This file is the slot routing layer under ShardedEngine: instead of hashing
// keys straight to a shard (FNV mod N, which reshuffles nearly every key when
// N changes), keys hash into a fixed space of NumSlots slots and a small
// persisted table assigns each slot to a shard. Changing the fleet's shape is
// then a table edit, not a rehash: splitting a hot shard moves only the slots
// it gives away — ~moved/NumSlots of the keyspace — while every other slot's
// keys keep their owner, their files, and their in-flight traffic.

// NumSlots is the fixed size of the routing space. 256 slots bounds the
// assignment table at one cache line per shard worth of metadata while still
// slicing the keyspace finely enough that a split can peel load off in
// ~0.4% increments.
const NumSlots = 256

// slotMapVersion is the on-disk format version of the slot-assignment map.
const slotMapVersion = 1

// slotMapSuffix names the sidecar file holding the persisted assignment:
// <path>.slotmap next to the shard pool files.
const slotMapSuffix = ".slotmap"

// SlotMapPath returns the sidecar file path holding path's slot assignment.
func SlotMapPath(path string) string { return path + slotMapSuffix }

// SlotFor hashes a key into its slot: FNV-1a over the key bytes, mod
// NumSlots. The mapping is a pure function of the key — stable across
// restarts, shard counts, and assignment changes — so only the slot→shard
// table ever moves a key.
func SlotFor(key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % NumSlots)
}

// SlotMap is one immutable slot→shard assignment. The router publishes a new
// map (never edits one in place) on every cutover, so readers can use a
// loaded map without locks. Seq increases by one per published change; on
// disk the highest Seq is authoritative, and the atomic-publish protocol
// (see Save) guarantees a reader never observes a torn mix of two maps.
type SlotMap struct {
	// Version is the on-disk format version (slotMapVersion).
	Version int `json:"version"`
	// Seq numbers the assignment: 0 for the initial map, +1 per cutover.
	Seq uint64 `json:"seq"`
	// Shards is how many shards the assignment may reference; every entry of
	// Assign is < Shards. Opening a layout with fewer shard files than this
	// is refused — those slots' keys would have nowhere to live.
	Shards int `json:"shards"`
	// Assign maps slot → owning shard.
	Assign [NumSlots]uint16 `json:"assign"`
}

// DefaultSlotMap spreads the slots round-robin across n shards: slot s →
// s mod n. For shard counts that divide NumSlots (every power of two up to
// 256) this reproduces the legacy FNV-mod-N routing exactly — (h mod 256)
// mod n == h mod n when n divides 256 — so a pre-slot-map layout with a
// power-of-two shard count opens under it with every key already in place.
func DefaultSlotMap(n int) *SlotMap {
	m := &SlotMap{Version: slotMapVersion, Shards: n}
	for s := 0; s < NumSlots; s++ {
		m.Assign[s] = uint16(s % n)
	}
	return m
}

// clone returns a mutable copy with the same assignment; the caller edits it
// and publishes it as the next map.
func (m *SlotMap) clone() *SlotMap {
	c := *m
	return &c
}

// validate checks internal consistency: a sane shard count and every slot
// assigned to a shard the map admits to having.
func (m *SlotMap) validate() error {
	if m.Version != slotMapVersion {
		return fmt.Errorf("server: slot map version %d (want %d)", m.Version, slotMapVersion)
	}
	if m.Shards <= 0 || m.Shards > NumSlots {
		return fmt.Errorf("server: slot map shard count %d out of range [1,%d]", m.Shards, NumSlots)
	}
	for s, k := range m.Assign {
		if int(k) >= m.Shards {
			return fmt.Errorf("server: slot %d assigned to shard %d of %d", s, k, m.Shards)
		}
	}
	return nil
}

// slotsOf returns the slots shard k owns, in slot order.
func (m *SlotMap) slotsOf(k int) []int {
	var out []int
	for s, owner := range m.Assign {
		if int(owner) == k {
			out = append(out, s)
		}
	}
	return out
}

// LoadSlotMap reads and validates the slot map persisted for the layout at
// path, through fs (nil means seglog.OS). A missing file returns (nil, nil):
// the layout predates slot routing, or a crash hit between creating the
// shard files and the first Save, and the caller falls back to the default
// assignment.
func LoadSlotMap(fs seglog.FS, path string) (*SlotMap, error) {
	data, err := seglog.ReadFile(fs, SlotMapPath(path))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: slot map: %w", err)
	}
	m := &SlotMap{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("server: slot map %s: %w", SlotMapPath(path), err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("server: slot map %s: %w", SlotMapPath(path), err)
	}
	return m, nil
}

// Save atomically publishes the map as path's slot-map sidecar, through fs
// (nil means seglog.OS): staged to a temp file, fsynced, renamed over the
// old map, directory fsynced (the same seglog.Publish a new pool's zero
// checkpoint uses). A crash at any point leaves either the previous
// assignment or this one intact — which is the cutover's durability point:
// a slot migration is committed exactly when the map carrying it survives
// power loss.
func (m *SlotMap) Save(fs seglog.FS, path string) error {
	if err := m.validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "\t")
	if err != nil {
		return err
	}
	return seglog.Publish(fs, SlotMapPath(path), append(data, '\n'))
}
