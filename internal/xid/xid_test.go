package xid

import (
	"testing"
	"time"
)

func TestCatalogComplete(t *testing.T) {
	for _, c := range All() {
		info, ok := Lookup(c)
		if !ok {
			t.Fatalf("missing catalog entry for %d", int(c))
		}
		if info.Code != c {
			t.Fatalf("catalog entry for %d has code %d", int(c), int(info.Code))
		}
		if info.Abbr == "" || info.Description == "" {
			t.Fatalf("catalog entry for %v lacks abbr or description", c)
		}
		if info.Category < CategoryHardware || info.Category > CategorySoftware {
			t.Fatalf("catalog entry for %v has invalid category", c)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup(Code(999)); ok {
		t.Fatal("Lookup(999) succeeded")
	}
}

func TestExclusionRules(t *testing.T) {
	// The paper excludes XID 13 and 43 despite significant counts.
	for _, c := range []Code{GPUSoftware, ResetChannel} {
		if c.InStats() {
			t.Fatalf("%v should be excluded from stats", c)
		}
	}
	for _, c := range Studied() {
		if c == GPUSoftware || c == ResetChannel {
			t.Fatalf("Studied() contains excluded code %v", c)
		}
		if !c.InStats() {
			t.Fatalf("Studied() contains code %v with InStats=false", c)
		}
	}
	if got := len(Studied()); got != 12 {
		t.Fatalf("Studied() returned %d codes, want 12", got)
	}
}

func TestCategories(t *testing.T) {
	cases := map[Code]Category{
		MMU:             CategoryHardware,
		FallenOffBus:    CategoryHardware,
		GSPRPCTimeout:   CategoryHardware,
		GSPError:        CategoryHardware,
		PMUSPIReadFail:  CategoryHardware,
		PMUSPIWriteFail: CategoryHardware,
		DBE:             CategoryMemory,
		RRE:             CategoryMemory,
		RRF:             CategoryMemory,
		ContainedMem:    CategoryMemory,
		UncontainedMem:  CategoryMemory,
		NVLink:          CategoryInterconnect,
		GPUSoftware:     CategorySoftware,
		Code(12345):     CategorySoftware,
	}
	for c, want := range cases {
		if got := c.Category(); got != want {
			t.Errorf("%v category = %v, want %v", c, got, want)
		}
	}
}

func TestGroupOf(t *testing.T) {
	// Paper merges 119/120 and 122/123 into single Table I rows.
	if g, ok := GroupOf(GSPRPCTimeout); !ok || g != GroupGSP {
		t.Fatalf("GroupOf(119) = %v, %v", g, ok)
	}
	if g, ok := GroupOf(GSPError); !ok || g != GroupGSP {
		t.Fatalf("GroupOf(120) = %v, %v", g, ok)
	}
	if g, ok := GroupOf(PMUSPIReadFail); !ok || g != GroupPMU {
		t.Fatalf("GroupOf(122) = %v, %v", g, ok)
	}
	if g, ok := GroupOf(PMUSPIWriteFail); !ok || g != GroupPMU {
		t.Fatalf("GroupOf(123) = %v, %v", g, ok)
	}
	if _, ok := GroupOf(GPUSoftware); ok {
		t.Fatal("GroupOf(13) should have no Table I row")
	}
}

func TestTableIGroupsOrderAndCategories(t *testing.T) {
	groups := TableIGroups()
	if len(groups) != 11 {
		t.Fatalf("TableIGroups() returned %d rows, want 11", len(groups))
	}
	if groups[0] != GroupMMU || groups[len(groups)-1] != GroupPMU {
		t.Fatalf("unexpected row order: %v", groups)
	}
	if GroupCategory(GroupNVLink) != CategoryInterconnect {
		t.Fatal("NVLink group should be Interconnect")
	}
	if GroupCategory(GroupUncorrECC) != CategoryMemory {
		t.Fatal("Uncorrectable ECC group should be Memory")
	}
	if GroupCategory(GroupGSP) != CategoryHardware {
		t.Fatal("GSP group should be Hardware")
	}
}

func TestEventKey(t *testing.T) {
	at := Time(time.Date(2023, 5, 1, 12, 0, 0, 0, time.UTC).UnixNano())
	a := Event{Time: at, Node: "gpub001", GPU: 2, Code: NVLink}
	b := Event{Time: at + Time(time.Second), Node: "gpub001", GPU: 2, Code: NVLink, Detail: "link 3"}
	if a.Key() != b.Key() {
		t.Fatal("events differing only in time/detail should share a key")
	}
	c := Event{Time: at, Node: "gpub001", GPU: 3, Code: NVLink}
	if a.Key() == c.Key() {
		t.Fatal("events on different GPUs should not share a key")
	}
}

func TestStringers(t *testing.T) {
	if s := MMU.String(); s != "XID 31 (MMU Error)" {
		t.Fatalf("MMU.String() = %q", s)
	}
	if s := Code(999).String(); s != "XID 999 (XID 999)" {
		t.Fatalf("unknown code String() = %q", s)
	}
	if CategoryHardware.String() != "Hardware" || Category(99).String() == "" {
		t.Fatal("Category.String misbehaves")
	}
	if RecoveryGPUReset.String() != "gpu-reset" || RecoveryAction(99).String() == "" {
		t.Fatal("RecoveryAction.String misbehaves")
	}
}
