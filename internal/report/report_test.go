package report

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/core"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// smallResults builds a Results from a handful of synthetic events.
func smallResults(t *testing.T) *core.Results {
	t.Helper()
	op := calib.Op()
	var events []xid.Event
	for i := 0; i < 48; i++ {
		events = append(events, xid.Event{
			Time: xid.Time(op.Start.Add(time.Duration(i) * 24 * time.Hour).UnixNano()),
			Node: "gpub001", GPU: int32(i % 4), Code: xid.MMU,
		})
	}
	events = append(events, xid.Event{
		Time: xid.Time(op.Start.Add(time.Hour).UnixNano()), Node: "gpub002", GPU: 0, Code: xid.RRE,
	})
	cfg := core.DefaultPipelineConfig(calib.PreOp(), op, calib.Nodes)
	res, err := core.Analyze(events, nil, []time.Duration{time.Hour, 30 * time.Minute},
		workload.CPURecord{Total: 100, Succeeded: 75}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteTableI(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTableI(&buf, smallResults(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"MMU Error", "Hardware", "48", "RRE", "Totals:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I output missing %q:\n%s", want, out)
		}
	}
	// Zero-count cells render as "-".
	if !strings.Contains(out, "-") {
		t.Fatal("no dash cells for zero counts")
	}
}

func TestWriteTableIIAndIII(t *testing.T) {
	var buf bytes.Buffer
	res := smallResults(t)
	if err := WriteTableII(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Total GPU-failed jobs: 0") {
		t.Fatalf("Table II output:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteTableIII(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "256+") || !strings.Contains(out, "CPU jobs: 100 (75.00% success)") {
		t.Fatalf("Table III output:\n%s", out)
	}
}

func TestWriteFigure2(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigure2(&buf, smallResults(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 2", "MTTR 0.75 h", "availability"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFindings(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFindings(&buf, smallResults(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Headline findings", "(vii)", "availability"} {
		if !strings.Contains(out, want) {
			t.Fatalf("findings missing %q:\n%s", want, out)
		}
	}
	// The small dataset has no pre-op errors, so finding (i) is skipped
	// rather than rendered with garbage.
	if strings.Contains(out, "(i)   Per-node MTBE went from 0") {
		t.Fatal("finding (i) rendered with zero MTBE")
	}
}

func TestWriteAllAndComparison(t *testing.T) {
	var buf bytes.Buffer
	res := smallResults(t)
	if err := WriteAll(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "Figure 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteAll missing section %q", want)
		}
	}
	buf.Reset()
	if err := WriteComparison(&buf, res); err != nil {
		t.Fatal(err)
	}
	cmp := buf.String()
	for _, want := range []string{"Paper", "Measured", "Table I MMU Error op count", "8863", "MTTR"} {
		if !strings.Contains(cmp, want) {
			t.Fatalf("comparison missing %q:\n%s", want, cmp)
		}
	}
}

// TestComparisonTableIIIRows checks the per-bucket elapsed-time rows: the
// paper column comes from the workload calibration, the measured one from
// Table III.
func TestComparisonTableIIIRows(t *testing.T) {
	res := smallResults(t)
	res.TableIII[0].MeanMin, res.TableIII[0].P50Min = 87.81, 20.3
	var buf bytes.Buffer
	if err := WriteComparison(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	find := func(metric string) []string {
		for _, l := range lines {
			if strings.HasPrefix(l, metric+"  ") {
				return strings.Fields(strings.TrimPrefix(l, metric))
			}
		}
		t.Fatalf("comparison has no %q row:\n%s", metric, buf.String())
		return nil
	}
	b := workload.DefaultBuckets()[0]
	for _, c := range []struct {
		metric string
		want   []string
	}{
		{"Table III 1 GPUs mean elapsed (min)", []string{fmt.Sprintf("%.2f", b.MeanMin), "87.81", fmt.Sprintf("%.2f", 87.81/b.MeanMin)}},
		{"Table III 1 GPUs median elapsed (min)", []string{fmt.Sprintf("%.2f", b.MedianMin), "20.30", fmt.Sprintf("%.2f", 20.3/b.MedianMin)}},
	} {
		if got := find(c.metric); !slices.Equal(got, c.want) {
			t.Fatalf("%s: cells %q, want %q", c.metric, got, c.want)
		}
	}
	for _, bucket := range workload.DefaultBuckets() {
		find("Table III " + bucket.Name + " GPUs mean elapsed (min)")
		find("Table III " + bucket.Name + " GPUs median elapsed (min)")
	}
}
