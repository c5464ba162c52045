package transport

import (
	"reflect"
	"testing"
)

// TestLocalStatsCountRecords checks the in-process transport's advisory
// accounting: each Exchange measures the logical frame its records would
// occupy on a wire, so `-transport local` reports a comparable wireBytes
// instead of 0.
func TestLocalStatsCountRecords(t *testing.T) {
	l := NewLocal()
	recs := []Record{
		{Machine: 0, Ops: 10, Started: true},
		{Machine: 1, Ops: 20, Started: true},
	}
	meta := RoundMeta{Round: 0, Name: "candidates", Phase: "candidates"}
	out, err := l.Exchange(meta, [][]int{{0, 1}}, recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, recs) {
		t.Fatalf("Local.Exchange must be the identity on records: %+v", out)
	}

	st := l.Stats()
	if st.Exchanges != 1 || st.Frames != 1 {
		t.Errorf("after one exchange: %+v", st)
	}
	if st.BytesOut <= frameHeaderLen {
		t.Errorf("BytesOut = %d, want > header (%d): record body not counted", st.BytesOut, frameHeaderLen)
	}
	// A second, bigger exchange adds strictly more than the first.
	first := st.BytesOut
	big := make([]Record, 16)
	for i := range big {
		big[i] = Record{Machine: i, Ops: int64(i), Started: true}
	}
	if _, err := l.Exchange(RoundMeta{Round: 1, Name: "candidates", Phase: "candidates"}, [][]int{nil}, big, nil); err != nil {
		t.Fatal(err)
	}
	st = l.Stats()
	if st.Exchanges != 2 || st.BytesOut-first <= first {
		t.Errorf("16-record exchange added %d bytes, want more than the 2-record one (%d)", st.BytesOut-first, first)
	}
	if st.BytesIn != 0 || st.PeersLost != 0 || st.Reassigns != 0 {
		t.Errorf("single-party transport grew multi-party counters: %+v", st)
	}
}
