package core_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/core"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// FuzzJobDBPass holds the raw-logs path's one pass over a job DB to the
// slice functions over LoadDB's jobs on arbitrary dumps: AnalyzeLogs either
// fails with LoadDB's error, wrapped as it always was, or gives the Table
// II, Table III and job statistics that core.Analyze computes from LoadDB's
// jobs. A small fixed log puts errors on the GPUs and hours the seed rows
// use, so Table II has rows to get wrong.
func FuzzJobDBPass(f *testing.F) {
	const header = "JobID|JobName|User|Partition|ReqGPUS|Submit|Start|End|State|ExitCode|Placement|ML\n"
	at := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	var logs []byte
	for i, e := range []struct {
		after time.Duration
		node  string
		gpu   int32
		code  xid.Code
	}{
		{30 * time.Minute, "gpub001", 0, xid.MMU},
		{119*time.Minute + 50*time.Second, "gpub001", 1, xid.FallenOffBus},
		{3 * time.Hour, "gpub002", 3, xid.NVLink},
		{4*time.Hour - 5*time.Second, "gpub002", 3, xid.MMU},
	} {
		ev := xid.Event{Time: xid.Time(at.Add(e.after).UnixNano()), Node: e.node, GPU: e.gpu, Code: e.code}
		logs = syslog.AppendLine(logs, ev, 100+i, "python")
		logs = append(logs, '\n')
	}
	ext, err := ingest.ExtractReader(strings.NewReader(string(logs)), ingest.Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	events := slices.Concat(ext.Segments...)
	cpu := workload.CPURecord{Total: 10, Succeeded: 7}

	rows := []string{
		"1|train_bert|u1|gpuA100x4|2|2023-01-01T00:00:00Z|2023-01-01T00:10:00Z|2023-01-01T02:00:00Z|FAILED|1:0|gpub001:0,1|1",
		"2|namd|u2|gpuA100x4|8|2023-01-01T00:00:00Z|2023-01-01T02:30:00Z|2023-01-01T04:00:00Z|NODE_FAIL|0:0|gpub002:0,1,2,3;gpub003:0,1,2,3|0",
		"3|llm|u1|gpuA100x8|1|2023-01-01T00:00:00Z|2023-01-01T00:00:05Z|2023-01-01T05:00:00.5Z|COMPLETED|0:0|gpub001:0|1",
		"4|x|u3|cpu|1|2023-01-01T00:00:00Z|||PENDING|0:0||0",
		"5|y|u3|gpuA100x4|300|2023-01-01T00:00:00Z|2023-01-01T03:00:00Z|2023-01-01T02:00:00Z|TIMEOUT|0:15|gpub002:+3, 1|0",
	}
	all := header + strings.Join(rows, "\n") + "\n"
	f.Add(all)
	f.Add(all + "\n\n")
	f.Add("")
	f.Add(header)
	f.Add("JobID|JobName|User\n" + rows[0] + "\n")
	f.Add(header + rows[0] + "\n" + strings.Replace(rows[1], "gpub002:0", "gpub002:0x1", 1) + "\n")
	f.Add(header + rows[0] + "\n6|a|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0|\n")
	f.Add(header + "7|a|u|p|1|1969-12-31T23:59:59Z|||PENDING|0:0||0\n")
	f.Fuzz(func(t *testing.T, dump string) {
		if len(dump) > 1<<16 {
			return
		}
		got, gotErr := core.AnalyzeLogs(strings.NewReader(string(logs)), strings.NewReader(dump), nil, cpu, pipeCfg())
		jobs, loadErr := slurmsim.LoadDB(strings.NewReader(dump))
		if loadErr != nil {
			if want := "core: load job DB: " + loadErr.Error(); gotErr == nil || gotErr.Error() != want {
				t.Fatalf("one pass gives error %v, want %q", gotErr, want)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("one pass fails with %v, LoadDB loads %d jobs", gotErr, len(jobs))
		}
		want, err := core.Analyze(events, jobs, nil, cpu, pipeCfg())
		if err != nil {
			t.Fatal(err)
		}
		if dump == all && (len(want.TableII.Rows) < 2 || want.TableII.TotalGPUFailedJobs == 0) {
			t.Fatalf("the seed dump meets too few errors: %+v", want.TableII)
		}
		if !reflect.DeepEqual(got.TableII, want.TableII) {
			t.Fatalf("Table II:\n got %+v\nwant %+v", got.TableII, want.TableII)
		}
		if !reflect.DeepEqual(got.TableIII, want.TableIII) {
			t.Fatalf("Table III:\n got %+v\nwant %+v", got.TableIII, want.TableIII)
		}
		if got.JobStats != want.JobStats {
			t.Fatalf("job statistics:\n got %+v\nwant %+v", got.JobStats, want.JobStats)
		}
	})
}
