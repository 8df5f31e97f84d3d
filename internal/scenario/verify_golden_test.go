package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/traffic"
)

// verifyOutcomes is the integer face of a report: every loop counter a
// run produces, ground-verification results included. Wall-clock
// figures and float estimates are left out on purpose.
type verifyOutcomes struct {
	Frames, OutageFrames                               int
	OfferedCells, GrantedCells, DeniedCells, Throttled int
	UplinkBursts, UplinkFailures, UplinkBitErrs        int
	DeliveredPackets, DeliveredBits                    int
	DroppedQueue, DroppedReencode                      int
	QueueHighWater                                     []int
	LatencySum, LatencyMax                             int
	Verified                                           bool
	DownlinkLost, DownlinkBitErrs                      int
}

func outcomesOf(r *traffic.Report) verifyOutcomes {
	return verifyOutcomes{
		Frames: r.Frames, OutageFrames: r.OutageFrames,
		OfferedCells: r.OfferedCells, GrantedCells: r.GrantedCells,
		DeniedCells: r.DeniedCells, Throttled: r.ThrottledCells,
		UplinkBursts: r.UplinkBursts, UplinkFailures: r.UplinkFailures, UplinkBitErrs: r.UplinkBitErrs,
		DeliveredPackets: r.DeliveredPackets, DeliveredBits: r.DeliveredBits,
		DroppedQueue: r.DroppedQueue, DroppedReencode: r.DroppedReencode,
		QueueHighWater: r.QueueHighWater,
		LatencySum:     r.LatencySum, LatencyMax: r.LatencyMax,
		Verified:     r.Verified,
		DownlinkLost: r.DownlinkLost, DownlinkBitErrs: r.DownlinkBitErrs,
	}
}

// TestPresetsVerifyGolden steps every preset with ground verification
// on and compares each integer loop outcome against a checked-in
// golden. It pins the DDC bank and ground demodulators of the verify
// path, which the fast-convolution equivalence test runs without.
// Regenerate with go test -run TestPresetsVerifyGolden -update only
// when a change is meant to move simulated outcomes.
func TestPresetsVerifyGolden(t *testing.T) {
	const frames = 6
	golden := filepath.Join("testdata", "verify-outcomes.golden.json")
	got := map[string]verifyOutcomes{}
	for _, name := range PresetNames() {
		spec, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Traffic.Verify = true
		sess, err := NewSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			if _, err := sess.Step(); err != nil {
				t.Fatalf("%s frame %d: %v", name, i, err)
			}
		}
		got[name] = outcomesOf(sess.Report())
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	var want map[string]verifyOutcomes
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d presets, registry has %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s: verify-path outcomes drifted\ngot:  %s\nwant: %s", name, gj, wj)
		}
	}
}
