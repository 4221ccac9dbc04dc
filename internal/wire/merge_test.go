package wire

import (
	"bufio"
	"bytes"
	"testing"
)

func TestMergeRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpMerge, Shard: 2},
		{Op: OpMerge, Shard: 0},
		{Op: OpMerge, Shard: MergeAuto},
	}
	var buf bytes.Buffer
	for _, req := range reqs {
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for _, want := range reqs {
		got, err := ReadRequest(br)
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != OpMerge || got.Shard != want.Shard {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}
