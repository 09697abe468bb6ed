package coalesce

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"gpuresilience/internal/xid"
)

// TestBlocksJSONIsFlatArray: Blocks encode as the flat array of their
// events, byte for byte what a []xid.Event encodes as, at and around the
// block boundaries, and decode back into whole blocks.
func TestBlocksJSONIsFlatArray(t *testing.T) {
	events := randomEvents(5, 2*keptBlock+1)
	for _, n := range []int{0, 1, keptBlock, keptBlock + 1, 2 * keptBlock, 2*keptBlock + 1} {
		var b Blocks
		for _, ev := range events[:n] {
			b.Append(ev, nil)
		}
		got, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(events[:n:n])
		if n == 0 {
			want, err = json.Marshal([]xid.Event(nil))
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d events encode as %.80s, want %.80s", n, got, want)
		}
		var back Blocks
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if back.Len() != n || (n > 0 && !reflect.DeepEqual(slices.Concat(back...), events[:n])) {
			t.Fatalf("%d events decode to %d", n, back.Len())
		}
		for i, blk := range back {
			if len(blk) == 0 || cap(blk) != keptBlock || (i < len(back)-1 && len(blk) != keptBlock) {
				t.Fatalf("%d events: decoded block %d of %d holds %d of %d", n, i, len(back), len(blk), cap(blk))
			}
		}
	}
}
