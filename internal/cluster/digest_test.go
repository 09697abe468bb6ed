package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// TestCalibOutputsPinned pins the calibrated simulator's outputs at 5%
// scale: the sacct job DB, the repair log and the raw syslog stream. Any
// change to scheduling, placement, RNG consumption or emission order moves
// one of these digests; a pure optimization must not.
func TestCalibOutputsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed                 uint64
		jobs, downtimes, log string
	}{
		{seed: 1,
			jobs:      "102d60e6700991dff0b3ad37b5ccfbf685f64286f82b2075a65b876ebec94c61",
			downtimes: "267c36adc90b3dd148f11de89089fbdca40e41384911c45fea51e5a36981f1c4",
			log:       "4e84129231ef8193430f10607ea3564091df9344980ca7c07b28efc2514ac070"},
		{seed: 7,
			jobs:      "068100b370b6bb5f7c8994e4ad01d1c17c0cad1cbba7f864213045f43d57cb32",
			downtimes: "1968c5a40cc6aca722f1216f10471dbab2b7d237b61d5591e530fa7aae7d7209"},
	} {
		sim, err := cluster.New(calib.NewScenario(tc.seed, 0.05).Cluster)
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		w, err := syslog.NewWriter(&log, syslog.DefaultWriterConfig(), tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetEventSink(func(ev xid.Event) error {
			_, err := w.WriteEvent(ev)
			return err
		})
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var jobs, down bytes.Buffer
		if err := slurmsim.DumpDB(&jobs, res.Jobs); err != nil {
			t.Fatal(err)
		}
		if err := cluster.WriteDowntimes(&down, res.Downtimes); err != nil {
			t.Fatal(err)
		}
		check := func(what string, data []byte, want string) {
			t.Helper()
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); want != "" && got != want {
				t.Errorf("seed %d %s: sha256 %s (%d bytes), want %s", tc.seed, what, got, len(data), want)
			}
		}
		check("job DB", jobs.Bytes(), tc.jobs)
		check("downtimes", down.Bytes(), tc.downtimes)
		check("raw log", log.Bytes(), tc.log)
	}
}
