package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"gpuresilience/internal/core"
	"gpuresilience/internal/report"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/syslog"
)

// Table names the snapshot's documents; the HTTP server maps
// /v1/tables/{name} onto them.
const (
	TableXIDStat      = "xidstat"
	TableJobImpact    = "jobimpact"
	TableAvailability = "availability"
)

// TableNames lists the snapshot's table documents in serving order.
func TableNames() []string {
	return []string{TableXIDStat, TableJobImpact, TableAvailability}
}

// Doc is one endpoint's pre-rendered representations. Both bodies are
// immutable once built; ETags are content hashes, so two snapshots over
// identical sealed state serve identical validators and pollers get 304s.
type Doc struct {
	// JSON is the machine-readable body; JSONETag its strong validator.
	JSON     []byte
	JSONETag string // see JSON
	// Text is the batch-CLI-identical rendering; TextETag its validator.
	Text     []byte
	TextETag string // see Text
}

// Snapshot is the read path's unit of publication: everything the HTTP
// server serves, rendered once per engine generation and swapped atomically.
// Handlers only ever read a snapshot, never the engine.
type Snapshot struct {
	// Gen is the engine generation the snapshot was built from.
	Gen uint64
	// Status is the engine's ingest state at build time.
	Status Status
	// Tables maps table names to their rendered documents.
	Tables map[string]*Doc
	// BuiltAt is when the publisher built the snapshot (wall clock, set by
	// the daemon; zero in tests that never touch real time).
	BuiltAt time.Time
}

// etag returns a strong validator for a body: a quoted, truncated content
// hash — stable across processes, cheap to compare.
func etag(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:8]) + `"`
}

func newDoc(jsonBody, textBody []byte) *Doc {
	return &Doc{
		JSON:     jsonBody,
		JSONETag: etag(jsonBody),
		Text:     textBody,
		TextETag: etag(textBody),
	}
}

// tableIRowView is one Table I row in the JSON document.
type tableIRowView struct {
	Group    string   `json:"group"`
	Category string   `json:"category"`
	PreOp    cellView `json:"preOp"`
	Op       cellView `json:"op"`
}

type cellView struct {
	Count          int     `json:"count"`
	SystemMTBEHrs  float64 `json:"systemMTBEHours,omitempty"`
	PerNodeMTBEHrs float64 `json:"perNodeMTBEHours,omitempty"`
}

type summaryView struct {
	Period             string  `json:"period"`
	Total              int     `json:"total"`
	TotalExclOutliers  int     `json:"totalExclOutliers"`
	OutlierErrors      int     `json:"outlierErrors,omitempty"`
	PerNodeMTBEHrs     float64 `json:"perNodeMTBEHours,omitempty"`
	MemoryPerNodeHrs   float64 `json:"memoryPerNodeMTBEHours,omitempty"`
	HardwarePerNodeHrs float64 `json:"hardwarePerNodeMTBEHours,omitempty"`
}

type xidstatView struct {
	Status          Status              `json:"status"`
	Extract         syslog.ExtractStats `json:"extract"`
	RawEvents       int                 `json:"rawEvents"`
	CoalescedEvents int                 `json:"coalescedEvents"`
	TableI          []tableIRowView     `json:"tableI"`
	PreOp           summaryView         `json:"preOp"`
	Op              summaryView         `json:"op"`
}

type tableIIRowView struct {
	Code             int     `json:"code"`
	Abbr             string  `json:"abbr"`
	GPUFailedJobs    int     `json:"gpuFailedJobs"`
	JobsEncountering int     `json:"jobsEncountering"`
	FailureProb      float64 `json:"failureProbability"`
}

type jobimpactView struct {
	Status             Status           `json:"status"`
	TableII            []tableIIRowView `json:"tableII"`
	TotalGPUFailedJobs int              `json:"totalGPUFailedJobs"`
	EncounteredAny     int              `json:"encounteredAny"`
	TableIII           []tableIIIRow    `json:"tableIII"`
	JobStats           jobStatsView     `json:"jobStats"`
}

type tableIIIRow struct {
	Bucket         string  `json:"bucket"`
	Count          int     `json:"count"`
	Pct            float64 `json:"pct"`
	MeanMin        float64 `json:"meanMinutes"`
	P50Min         float64 `json:"p50Minutes"`
	P99Min         float64 `json:"p99Minutes"`
	MLGPUHoursK    float64 `json:"mlGPUHoursK"`
	NonMLGPUHoursK float64 `json:"nonMLGPUHoursK"`
}

type jobStatsView struct {
	GPUTotal       int     `json:"gpuTotal"`
	GPUSucceeded   int     `json:"gpuSucceeded"`
	GPUSuccessRate float64 `json:"gpuSuccessRate"`
	CPUTotal       int     `json:"cpuTotal"`
	CPUSucceeded   int     `json:"cpuSucceeded"`
	CPUSuccessRate float64 `json:"cpuSuccessRate"`
	ShareSingleGPU float64 `json:"shareSingleGPU"`
	Share2to4      float64 `json:"share2to4"`
	ShareOver4     float64 `json:"shareOver4"`
}

type availabilityView struct {
	Status         Status        `json:"status"`
	Repairs        int           `json:"repairs"`
	MTTRHours      float64       `json:"mttrHours"`
	MedianHours    float64       `json:"medianHours"`
	P99Hours       float64       `json:"p99Hours"`
	LostNodeHours  float64       `json:"lostNodeHours"`
	MTTFHours      float64       `json:"mttfHours,omitempty"`
	Availability   float64       `json:"availability,omitempty"`
	DowntimePerDay string        `json:"downtimePerDay,omitempty"`
	Histogram      histogramView `json:"histogram"`
}

type histogramView struct {
	MinHours float64 `json:"minHours"`
	MaxHours float64 `json:"maxHours"`
	Counts   []int   `json:"counts"`
	Overflow int     `json:"overflow,omitempty"`
	Total    int     `json:"total"`
}

// BuildSnapshot renders one snapshot from the engine's current sealed
// state: Stage III runs once, then every table's JSON and text bodies are
// produced from the same Results, so the representations can never drift
// apart within a snapshot.
func BuildSnapshot(e *Engine) (*Snapshot, error) {
	st := e.Status()
	res, err := e.Results()
	if err != nil {
		return nil, err
	}
	cfg := e.cfg
	snap := &Snapshot{
		Gen:    st.Gen,
		Status: st,
		Tables: make(map[string]*Doc, 3),
	}

	// xidstat: the batch CLI's summary line plus Table I, byte-identical.
	var text bytes.Buffer
	if err := report.WriteScanSummary(&text, res); err != nil {
		return nil, err
	}
	if err := report.WriteTableI(&text, res); err != nil {
		return nil, err
	}
	jsonBody, err := marshalDoc(xidstatView{
		Status:          st,
		Extract:         res.Extract,
		RawEvents:       res.RawEvents,
		CoalescedEvents: res.CoalescedEvents,
		TableI:          tableIRows(res),
		PreOp:           summarize(res.PreSummary),
		Op:              summarize(res.OpSummary),
	})
	if err != nil {
		return nil, err
	}
	snap.Tables[TableXIDStat] = newDoc(jsonBody, append([]byte(nil), text.Bytes()...))

	// jobimpact: Tables II and III exactly as the batch CLI prints them.
	text.Reset()
	if err := report.WriteJobImpact(&text, res); err != nil {
		return nil, err
	}
	jsonBody, err = marshalDoc(jobimpactView{
		Status:             st,
		TableII:            tableIIRows(res),
		TotalGPUFailedJobs: res.TableII.TotalGPUFailedJobs,
		EncounteredAny:     res.TableII.EncounteredAny,
		TableIII:           tableIIIRows(res),
		JobStats:           jobStats(res),
	})
	if err != nil {
		return nil, err
	}
	snap.Tables[TableJobImpact] = newDoc(jsonBody, append([]byte(nil), text.Bytes()...))

	// availability: the shared renderer the batch CLI uses, so the daemon's
	// text body matches `availability -repairs ... -logs ...` byte for byte.
	text.Reset()
	downByNode := report.DownHoursByNode(cfg.Downtimes, nil)
	full := stats.Period{Name: "characterization", Start: cfg.Pipeline.PreOp.Start, End: cfg.Pipeline.Op.End}
	errorCount := res.PreSummary.TotalExclOutliers + res.OpSummary.TotalExclOutliers
	if err := report.WriteAvailability(&text, res.Avail, downByNode, full, errorCount > 0); err != nil {
		return nil, err
	}
	av := availabilityView{
		Status:        st,
		Repairs:       res.Avail.Repairs,
		MTTRHours:     res.Avail.MTTRHours,
		MedianHours:   res.Avail.MedianHours,
		P99Hours:      res.Avail.P99Hours,
		LostNodeHours: res.Avail.LostNodeHours,
	}
	if errorCount > 0 {
		av.MTTFHours = res.Avail.MTTFHours
		av.Availability = res.Avail.Availability
		av.DowntimePerDay = res.Avail.DowntimePerDay.Round(0).String()
	}
	if h := res.Avail.Histogram; h != nil {
		av.Histogram = histogramView{
			MinHours: h.Min,
			MaxHours: h.Max,
			Counts:   append([]int(nil), h.Counts...),
			Overflow: h.Overflow,
			Total:    h.TotalCount,
		}
	}
	jsonBody, err = marshalDoc(av)
	if err != nil {
		return nil, err
	}
	snap.Tables[TableAvailability] = newDoc(jsonBody, append([]byte(nil), text.Bytes()...))
	return snap, nil
}

// marshalDoc renders a JSON body the way all table endpoints do: indented,
// newline-terminated.
func marshalDoc(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func tableIRows(res *core.Results) []tableIRowView {
	rows := make([]tableIRowView, 0, len(res.TableI))
	for _, r := range res.TableI {
		rows = append(rows, tableIRowView{
			Group:    string(r.Group),
			Category: r.Category.String(),
			PreOp:    cell(r.PreOp),
			Op:       cell(r.Op),
		})
	}
	return rows
}

func cell(c core.Cell) cellView {
	v := cellView{Count: c.Count}
	if c.Count > 0 {
		v.SystemMTBEHrs = c.MTBE.SystemWide
		v.PerNodeMTBEHrs = c.MTBE.PerNode
	}
	return v
}

func summarize(s core.PeriodSummary) summaryView {
	return summaryView{
		Period:             s.Period.Name,
		Total:              s.Total,
		TotalExclOutliers:  s.TotalExclOutliers,
		OutlierErrors:      s.OutlierErrors,
		PerNodeMTBEHrs:     s.PerNodeMTBE,
		MemoryPerNodeHrs:   s.MemoryPerNodeMTBE,
		HardwarePerNodeHrs: s.HardwarePerNodeMTBE,
	}
}

func tableIIRows(res *core.Results) []tableIIRowView {
	rows := make([]tableIIRowView, 0, len(res.TableII.Rows))
	for _, r := range res.TableII.Rows {
		rows = append(rows, tableIIRowView{
			Code:             int(r.Code),
			Abbr:             r.Code.Abbr(),
			GPUFailedJobs:    r.GPUFailedJobs,
			JobsEncountering: r.JobsEncountering,
			FailureProb:      r.FailureProb,
		})
	}
	return rows
}

func tableIIIRows(res *core.Results) []tableIIIRow {
	rows := make([]tableIIIRow, 0, len(res.TableIII))
	for _, r := range res.TableIII {
		rows = append(rows, tableIIIRow{
			Bucket:         r.Bucket,
			Count:          r.Count,
			Pct:            r.Pct,
			MeanMin:        r.MeanMin,
			P50Min:         r.P50Min,
			P99Min:         r.P99Min,
			MLGPUHoursK:    r.MLGPUHoursK,
			NonMLGPUHoursK: r.NonMLGPUHoursK,
		})
	}
	return rows
}

func jobStats(res *core.Results) jobStatsView {
	s := res.JobStats
	return jobStatsView{
		GPUTotal:       s.GPUTotal,
		GPUSucceeded:   s.GPUSucceeded,
		GPUSuccessRate: s.GPUSuccessRate,
		CPUTotal:       s.CPUTotal,
		CPUSucceeded:   s.CPUSucceeded,
		CPUSuccessRate: s.CPUSuccessRate,
		ShareSingleGPU: s.ShareSingleGPU,
		Share2to4:      s.Share2to4,
		ShareOver4:     s.ShareOver4,
	}
}
