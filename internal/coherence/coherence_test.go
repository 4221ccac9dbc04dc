package coherence

import "testing"

func TestStateStrings(t *testing.T) {
	cases := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(9): "State(9)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestStatePermissions(t *testing.T) {
	if Shared.CanWrite() || Invalid.CanWrite() {
		t.Error("S/I must not be writable without upgrade")
	}
	if !Exclusive.CanWrite() || !Modified.CanWrite() {
		t.Error("E/M must be writable")
	}
}

func TestSnoopOpStrings(t *testing.T) {
	if SnpData.String() != "SnpData" || SnpInv.String() != "SnpInv" {
		t.Fatal("wrong snoop op names")
	}
	if SnoopOp(7).String() != "SnoopOp(7)" {
		t.Fatal("wrong fallback name")
	}
}

func TestLineAddr(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {65, 64}, {4096 + 17, 4096},
	}
	for _, c := range cases {
		if got := LineAddr(c.in); got != c.want {
			t.Errorf("LineAddr(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}
