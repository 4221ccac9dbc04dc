package benchkit

import (
	"fmt"
	"time"

	"pax/internal/server"
)

// This file is SplitAct, the live-resharding act of RunScript (paxbench
// -loadgen -split): a zipfian-skewed shared keyspace runs against a
// file-backed fleet, the hottest shard splits live, the same traffic is
// measured again, and a crash and reopen proves no acked write was lost. It
// is the end-to-end measurement of the slot router
// (internal/server/slotmap.go + migrate.go), with only ~moved-slots/256 of
// the keyspace migrating.

// SplitJSON is the split half of a reshard record: what moved and whether
// the crash check passed. It rides on the post-split LoadJSON record.
type SplitJSON struct {
	Source     int     `json:"source"`
	Dest       int     `json:"dest"`
	NewShard   bool    `json:"new_shard"`
	MovedSlots int     `json:"moved_slots"`
	MovedKeys  int     `json:"moved_keys"`
	MovedFrac  float64 `json:"moved_frac"` // MovedSlots / NumSlots
	SplitMS    float64 `json:"split_ms"`   // wall time of the live migration
	// CrashVerified is whether the post-split crash+reopen found every key
	// present with a current value; LostKeys counts the ones it did not (the
	// acceptance bar is 0).
	CrashVerified bool `json:"crash_verified"`
	LostKeys      int  `json:"lost_keys"`
}

// split is SplitAct: the engine picks its hottest shard from per-slot op
// counts and migrates the hot half of its slots to a new shard — live, with
// no client traffic suspended except per slot during each cutover.
func (r *loadRun) split() (*SplitJSON, error) {
	start := time.Now()
	rep, err := r.eng.Split(-1)
	if err != nil {
		return nil, fmt.Errorf("benchkit: live split: %w", err)
	}
	return &SplitJSON{
		Source:     rep.Source,
		Dest:       rep.Dest,
		NewShard:   rep.NewShard,
		MovedSlots: len(rep.MovedSlots),
		MovedKeys:  rep.MovedKeys,
		MovedFrac:  float64(len(rep.MovedSlots)) / float64(server.NumSlots),
		SplitMS:    float64(time.Since(start).Microseconds()) / 1e3,
	}, nil
}
