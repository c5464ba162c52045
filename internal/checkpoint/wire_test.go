package checkpoint

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"mpcdist/internal/mpc"
	"mpcdist/internal/transport"
)

// recordSetGolden is goldenRecordSet as the hand-written record-set
// encoder wrote it before record sets became the codec's encoding of the
// map, over the table below. Stores written then must still resume, so
// the codec has to reproduce these bytes exactly.
const recordSetGolden = "058b0102010d02030203d80401010004616367740000040302000000018080808080409003010100"

func goldenRecordSet() map[int][]mpc.Payload {
	return map[int][]mpc.Payload{
		-70: {mpc.Int(-7), mpc.Ints{1, -2, 300}},
		-1:  {mpc.Bytes("acgt")},
		0:   {},
		2:   {mpc.Ints(nil), mpc.Bytes(nil), mpc.Int(1 << 40)},
		200: {mpc.Int(0)},
	}
}

// TestRecordSetGolden pins the record-set bytes: negative and positive
// machine ids, an empty outbox, and every built-in payload kind.
func TestRecordSetGolden(t *testing.T) {
	c, err := transport.NewCodecFor([]string{"mpc.Bytes", "mpc.Int", "mpc.Ints"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(recordSetGolden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.AppendValue(nil, goldenRecordSet())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("record set encodes as\n%x\nwant\n%x", got, want)
	}
	snap, err := snapshotOf(c, wireStep{Records: want})
	if err != nil {
		t.Fatal(err)
	}
	set := goldenRecordSet()
	set[0] = nil // an empty outbox decodes as nil, like every empty slice
	if !reflect.DeepEqual(snap.Next, set) {
		t.Errorf("golden bytes decode to %v, want %v", snap.Next, set)
	}
}

// TestEmptyRecordSetResumesNonNil resumes a step whose round sent nothing:
// its Next must be an empty map, not nil, because a driver may write into
// the previous round's outputs.
func TestEmptyRecordSetResumesNonNil(t *testing.T) {
	store := openTestStore(t)
	saver, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	empty := testSnapshot(0)
	empty.Next = map[int][]mpc.Payload{}
	if err := saver.Save(empty); err != nil {
		t.Fatal(err)
	}
	re, err := NewSaver(store, "job1", "ulam-mpc", SaverOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := re.Resume(empty.Round, empty.Name, empty.Phase)
	if err != nil || snap == nil {
		t.Fatalf("resume: %v, %v", snap, err)
	}
	if snap.Next == nil || len(snap.Next) != 0 {
		t.Errorf("empty record set resumed as %#v, want an empty non-nil map", snap.Next)
	}
}
