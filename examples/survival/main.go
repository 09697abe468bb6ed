// Survival analysis walk-through: applies the Titan-style GPU survival
// methodology (paper reference [24]) to the simulated fleet — Kaplan-Meier
// curves over per-device first-fatal-error lifetimes with right censoring,
// and a Weibull fit of per-device inter-error gaps whose shape parameter
// quantifies the error clustering the episode model produces.
//
//	go run ./examples/survival
package main

import (
	"fmt"
	"os"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/survival"
	"gpuresilience/internal/xid"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "survival:", err)
		os.Exit(1)
	}
}

func run() error {
	scenario := calib.NewScenario(17, 0.25)
	out, err := core.EndToEnd(core.EndToEndConfig{
		Cluster:  scenario.Cluster,
		Pipeline: core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes),
	})
	if err != nil {
		return err
	}
	events, err := coalesce.Events(out.Truth.Events, coalesce.DefaultWindow)
	if err != nil {
		return err
	}

	// The fleet: every (node, GPU) slot of Delta's A100 partition.
	var fleet []xid.Key
	for i := 0; i < calib.Nodes4; i++ {
		for g := int32(0); g < 4; g++ {
			fleet = append(fleet, xid.Key{Node: fmt.Sprintf("gpub%03d", i+1), GPU: g})
		}
	}
	for i := 0; i < calib.Nodes8; i++ {
		for g := int32(0); g < 8; g++ {
			fleet = append(fleet, xid.Key{Node: fmt.Sprintf("gpub%03d", calib.Nodes4+i+1), GPU: g})
		}
	}

	// "Fatal" = errors that take the device or node out of service.
	fatal := func(c xid.Code) bool {
		switch c {
		case xid.GSPRPCTimeout, xid.GSPError, xid.FallenOffBus, xid.UncontainedMem, xid.RRF:
			return true
		default:
			return false
		}
	}
	obs, err := survival.DeviceLifetimes(events, calib.Op(), fleet, fatal)
	if err != nil {
		return err
	}
	curve, err := survival.KaplanMeier(obs)
	if err != nil {
		return err
	}
	failed := 0
	for _, o := range obs {
		if !o.Censored {
			failed++
		}
	}
	fmt.Printf("Kaplan-Meier over %d devices, %d with a fatal error in the op period\n\n",
		len(obs), failed)
	fmt.Println("   t (days)   S(t)    at risk")
	step := len(curve) / 10
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(curve); i += step {
		p := curve[i]
		fmt.Printf("  %9.0f   %.3f   %d\n", p.TimeHours/24, p.Survival, p.AtRisk)
	}
	if last := curve[len(curve)-1]; true {
		fmt.Printf("  %9.0f   %.3f   %d  (end of observation)\n",
			last.TimeHours/24, last.Survival, last.AtRisk)
	}

	gaps := survival.InterEventHours(events, nil)
	if w, err := survival.FitWeibull(gaps); err == nil {
		fmt.Printf("\nInter-error gap Weibull: shape %.2f, scale %.2f h (mean %.1f h)\n",
			w.Shape, w.Scale, w.Mean())
		fmt.Println("Shape << 1 = decreasing hazard: errors cluster into episodes, so")
		fmt.Println("a device that just errored is very likely to error again soon —")
		fmt.Println("the signature behind the study's error-coalescing and the GSP")
		fmt.Println("storm phenomenology.")
	}
	return nil
}
