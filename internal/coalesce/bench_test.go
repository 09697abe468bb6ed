package coalesce

import (
	"testing"
	"time"

	"gpuresilience/internal/xid"
)

// BenchmarkCoalescerAdd measures streaming dedup throughput on a mixed
// stream (80% duplicates, realistic for raw logs).
func BenchmarkCoalescerAdd(b *testing.B) {
	c, err := New(DefaultWindow)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var at time.Time
		if i%5 == 0 {
			at = base.Add(time.Duration(i) * time.Second * 10)
		} else {
			at = base.Add(time.Duration(i/5) * time.Second * 50)
		}
		c.Add(xid.Event{Time: xid.Time(at.UnixNano()), Node: "gpub001", GPU: int32(i % 4), Code: xid.MMU})
	}
}
