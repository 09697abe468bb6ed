package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gpuresilience/internal/cluster"
	"gpuresilience/internal/core"
	"gpuresilience/internal/stream"
)

// splitLines turns the damaged log bytes into the delivered line sequence,
// preserving empty interior lines (corruption produces them) and dropping
// only the terminal newline's empty tail.
func splitLines(data []byte) []string {
	s := string(data)
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// replaySource is the feed name every replay mode ingests under, so source
// accounting is comparable across modes.
const replaySource = "replay"

// runReplays executes the compiled replay plan: a chaos-free reference pass
// first, then each chaos mode/cadence, comparing every finished run against
// both the reference engine's snapshot (byte-for-byte, including Stage I
// accounting) and the batch pipeline's table renderings.
func runReplays(c *Compiled, pcfg core.PipelineConfig, truth *cluster.Result,
	damaged []byte, batchDocs map[string]string, opts Options) ([]ReplayOutcome, error) {
	r := c.Replay
	lines := splitLines(damaged)
	scfg := stream.Config{
		Pipeline:  pcfg,
		Horizon:   r.Horizon.D(),
		Jobs:      truth.Jobs,
		Downtimes: truth.Downtimes,
		CPU:       truth.CPU,
	}

	refEng, err := replayPlain(scfg, lines, r.Chunk)
	if err != nil {
		return nil, err
	}
	refSnap, err := stream.BuildSnapshot(refEng)
	if err != nil {
		return nil, err
	}

	finish := func(eng *stream.Engine, out ReplayOutcome) (ReplayOutcome, error) {
		eng.FlushAll()
		snap, err := stream.BuildSnapshot(eng)
		if err != nil {
			return out, err
		}
		st := snap.Status
		for _, src := range st.Sources {
			out.Lines += src.Lines
			out.Dups += src.Dups
		}
		out.Quarantined = st.Quarantine.Late
		out.SealedEvents = st.SealedEvents
		streamRes, err := eng.Results()
		if err != nil {
			return out, err
		}
		streamDocs, err := renderTables(streamRes, truth.Downtimes)
		if err != nil {
			return out, err
		}
		out.Equivalent = true
		for _, name := range stream.TableNames() {
			if streamDocs[name] != batchDocs[name] {
				out.Equivalent, out.Mismatch = false, "batch:"+name
				break
			}
			if string(snap.Tables[name].Text) != string(refSnap.Tables[name].Text) {
				out.Equivalent, out.Mismatch = false, "snapshot:"+name
				break
			}
		}
		return out, nil
	}

	var outcomes []ReplayOutcome
	appendOutcome := func(eng *stream.Engine, out ReplayOutcome, err error) error {
		if err != nil {
			return err
		}
		out, err = finish(eng, out)
		if err != nil {
			return err
		}
		outcomes = append(outcomes, out)
		return nil
	}

	switch {
	case r.RotateEvery > 0:
		dir := opts.WorkDir
		if dir == "" {
			tmp, terr := os.MkdirTemp("", "stress-rotate-")
			if terr != nil {
				return nil, terr
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		eng, rotations, err := replayRotate(scfg, lines, r.Chunk, r.RotateEvery, dir)
		if err := appendOutcome(eng, ReplayOutcome{Mode: "rotate", Rotations: rotations}, err); err != nil {
			return nil, err
		}
	case len(r.KillSweep) > 0:
		for _, cadence := range r.KillSweep {
			eng, kills, cps, err := replayKill(scfg, lines, r.Chunk, cadence, r.Redeliver)
			out := ReplayOutcome{Mode: "kill", KillEvery: cadence, Kills: kills, Checkpoints: cps}
			if err := appendOutcome(eng, out, err); err != nil {
				return nil, err
			}
		}
	case r.KillEvery > 0:
		eng, kills, cps, err := replayKill(scfg, lines, r.Chunk, r.KillEvery, r.Redeliver)
		out := ReplayOutcome{Mode: "kill", KillEvery: r.KillEvery, Kills: kills, Checkpoints: cps}
		if err := appendOutcome(eng, out, err); err != nil {
			return nil, err
		}
	default:
		if err := appendOutcome(refEng, ReplayOutcome{Mode: "plain"}, nil); err != nil {
			return nil, err
		}
	}
	return outcomes, nil
}

// replayPlain streams every line through a fresh engine, advancing the
// watermark every chunk lines — the chaos-free reference every chaos mode
// must match byte for byte.
func replayPlain(scfg stream.Config, lines []string, chunk int) (*stream.Engine, error) {
	eng, err := stream.New(scfg)
	if err != nil {
		return nil, err
	}
	feed := stream.NewFeed(eng, replaySource)
	for i, line := range lines {
		if err := feed.Line(line); err != nil {
			return nil, err
		}
		if (i+1)%chunk == 0 {
			eng.Advance()
		}
	}
	eng.FlushAll()
	return eng, nil
}

// replayKill streams lines through an engine that is killed every cadence
// lines and resumed from its last JSON-roundtripped checkpoint, with the
// source re-delivering the final redeliver pre-checkpoint lines (absorbed as
// duplicates). Lines consumed after the checkpoint are re-consumed by the
// resumed engine — at-least-once delivery with no loss. Checkpoints are
// taken every cadence/2 lines, and watermark advances happen at the same
// absolute line indexes as the chaos-free reference, so the final state is
// byte-comparable.
func replayKill(scfg stream.Config, lines []string, chunk, cadence, redeliver int) (*stream.Engine, int, int, error) {
	eng, err := stream.New(scfg)
	if err != nil {
		return nil, 0, 0, err
	}
	feed := stream.NewFeed(eng, replaySource)
	cpEvery := cadence / 2
	if cpEvery < 1 {
		cpEvery = 1
	}
	var lastCP *stream.Checkpoint
	cpLine := 0
	nextKill := cadence
	kills, checkpoints := 0, 0
	for cur := 0; cur < len(lines); {
		if err := feed.Line(lines[cur]); err != nil {
			return nil, kills, checkpoints, err
		}
		cur++
		if cur%chunk == 0 {
			eng.Advance()
		}
		if cur%cpEvery == 0 && cur > cpLine {
			cp := eng.Checkpoint()
			// Round-trip through JSON — exactly what a daemon writes to disk
			// and reloads — so serialization gaps cannot hide.
			data, merr := json.Marshal(cp)
			if merr != nil {
				return nil, kills, checkpoints, merr
			}
			var rt stream.Checkpoint
			if uerr := json.Unmarshal(data, &rt); uerr != nil {
				return nil, kills, checkpoints, uerr
			}
			lastCP = &rt
			cpLine = cur
			checkpoints++
		}
		if cur == nextKill && cur < len(lines) {
			// The absolute next-kill target advances exactly once per kill;
			// keying on cur%cadence would re-trigger forever after the
			// cursor rewinds to the checkpoint.
			nextKill += cadence
			kills++
			eng, err = stream.Resume(scfg, lastCP)
			if err != nil {
				return nil, kills, checkpoints, err
			}
			feed = stream.NewFeed(eng, replaySource)
			back := cpLine - redeliver
			if back < 0 {
				back = 0
			}
			feed.SetStart(int64(back))
			for i := back; i < cpLine; i++ {
				if err := feed.Line(lines[i]); err != nil {
					return nil, kills, checkpoints, err
				}
			}
			cur = cpLine
		}
	}
	return eng, kills, checkpoints, nil
}

// replayRotate writes the lines into a log file that rotates every
// rotateEvery lines mid-stream and follows it with the rotation-aware
// tailer, polling (and advancing the watermark) every chunk lines.
func replayRotate(scfg stream.Config, lines []string, chunk, rotateEvery int, dir string) (*stream.Engine, int, error) {
	eng, err := stream.New(scfg)
	if err != nil {
		return nil, 0, err
	}
	active := filepath.Join(dir, "replay.log")
	f, err := os.Create(active)
	if err != nil {
		return nil, 0, err
	}
	tailer := stream.NewTailer(active)
	defer tailer.Close()
	consume := func(_ string, lineNo int64, line string) error {
		return eng.ConsumeLine(replaySource, lineNo, line)
	}
	rotations := 0
	for i, line := range lines {
		if _, err := f.WriteString(line + "\n"); err != nil {
			f.Close()
			return nil, rotations, err
		}
		if (i+1)%chunk == 0 {
			if _, err := tailer.Poll(consume); err != nil {
				f.Close()
				return nil, rotations, err
			}
			eng.Advance()
		}
		if (i+1)%rotateEvery == 0 && i+1 < len(lines) {
			if err := f.Close(); err != nil {
				return nil, rotations, err
			}
			rotated := fmt.Sprintf("%s.%d", active, rotations+1)
			if err := os.Rename(active, rotated); err != nil {
				return nil, rotations, err
			}
			f, err = os.Create(active)
			if err != nil {
				return nil, rotations, err
			}
			rotations++
		}
	}
	if err := f.Close(); err != nil {
		return nil, rotations, err
	}
	// Drain whatever the chunk cadence left unread (including the rotated
	// file's tail — the tailer switches after draining).
	if _, err := tailer.Poll(consume); err != nil {
		return nil, rotations, err
	}
	if _, err := tailer.Poll(consume); err != nil {
		return nil, rotations, err
	}
	eng.Advance()
	return eng, rotations, nil
}
