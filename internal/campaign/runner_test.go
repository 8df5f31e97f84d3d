package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync/atomic"
	"testing"
)

// testSpec is a quick campaign over the clean preset: 2 Eb/N0 points ×
// 3 seeds at 3 frames with verification off, small enough for the unit
// suite but exercising the full grid × seed path.
func testSpec() Spec {
	off := false
	return Spec{
		Name:         "unit-exec",
		BasePreset:   "clean",
		Frames:       3,
		Seed:         99,
		RunsPerPoint: 3,
		Verify:       &off,
		Axes:         []AxisSpec{{Kind: "ebn0", Values: []any{6.0, 9.0}}},
		Reducers:     []string{"ber", "goodput", "drops"},
		Gates:        []Gate{{MaxDrops: f64(0)}},
	}
}

// TestExecuteDeterministic pins the campaign determinism contract:
// same spec + seed → byte-identical artifact, whatever the worker
// count or completion order.
func TestExecuteDeterministic(t *testing.T) {
	sp := testSpec()
	encode := func(workers int) []byte {
		a, err := Execute(context.Background(), &sp, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if a.CompletedRuns != a.TotalRuns || a.Cancelled {
			t.Fatalf("completed %d/%d cancelled=%v", a.CompletedRuns, a.TotalRuns, a.Cancelled)
		}
		data, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq := encode(1)
	conc := encode(4)
	if string(seq) != string(conc) {
		t.Fatal("artifact differs between 1 and 4 workers")
	}
	if string(seq) != string(encode(4)) {
		t.Fatal("artifact differs across reruns")
	}
}

// TestExecuteArtifactValid runs a campaign and replays it through
// ValidateArtifact, including a JSON round trip (the tlmcheck path
// reads the artifact back from disk).
func TestExecuteArtifactValid(t *testing.T) {
	sp := testSpec()
	a, err := Execute(context.Background(), &sp, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateArtifact(a); err != nil {
		t.Fatal(err)
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := ValidateArtifact(&back); err != nil {
		t.Fatalf("decoded artifact invalid: %v", err)
	}
	if !a.GatesPassed {
		t.Fatal("clean-preset campaign failed its zero-drop gate")
	}
	for _, pt := range a.Points {
		if pt.Runs != sp.RunsPerPoint {
			t.Fatalf("point %s folded %d runs", pt.Label, pt.Runs)
		}
		if pt.Stats["ber"].Count != sp.RunsPerPoint {
			t.Fatalf("point %s ber count %d", pt.Label, pt.Stats["ber"].Count)
		}
	}
}

// TestValidateArtifactCatchesTampering corrupts a valid artifact in
// each dimension the validator guards and expects every mutation to be
// caught.
func TestValidateArtifactCatchesTampering(t *testing.T) {
	sp := testSpec()
	fresh := func() *Artifact {
		a, err := Execute(context.Background(), &sp, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cases := []struct {
		name string
		mut  func(a *Artifact)
	}{
		{"total runs", func(a *Artifact) { a.TotalRuns++ }},
		{"completed count", func(a *Artifact) { a.CompletedRuns-- }},
		{"seed drift", func(a *Artifact) { a.Runs[2].Seed++ }},
		{"metric drift", func(a *Artifact) { a.Runs[0].Metrics["goodput"] *= 2 }},
		{"stat drift", func(a *Artifact) {
			s := a.Points[0].Stats["goodput"]
			s.Mean++
			a.Points[0].Stats["goodput"] = s
		}},
		{"gate verdict flip", func(a *Artifact) { a.Points[0].Gates[0].Passed = false }},
		{"gates_passed flip", func(a *Artifact) { a.GatesPassed = false }},
		{"missing row", func(a *Artifact) { a.Runs = a.Runs[1:]; a.CompletedRuns-- }},
	}
	for _, tc := range cases {
		a := fresh()
		if err := ValidateArtifact(a); err != nil {
			t.Fatalf("%s: baseline invalid: %v", tc.name, err)
		}
		tc.mut(a)
		if err := ValidateArtifact(a); err == nil {
			t.Errorf("%s: tampering not caught", tc.name)
		}
	}
}

// TestExecuteCancellation cancels the context mid-campaign and checks
// the partial-artifact contract: completed runs only, marked
// cancelled, still internally valid.
func TestExecuteCancellation(t *testing.T) {
	sp := testSpec()
	sp.RunsPerPoint = 6 // 12 runs, cancel partway
	ctx, cancel := context.WithCancel(context.Background())
	var finished atomic.Int32
	a, err := Execute(ctx, &sp, Config{
		Workers: 2,
		OnRun: func(o RunOutcome) {
			if finished.Add(1) == 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Cancelled {
		t.Fatal("artifact not marked cancelled")
	}
	if a.CompletedRuns == 0 || a.CompletedRuns >= a.TotalRuns {
		t.Fatalf("completed %d of %d, want a strict partial", a.CompletedRuns, a.TotalRuns)
	}
	if len(a.Runs) != a.CompletedRuns+a.FailedRuns {
		t.Fatalf("%d rows for %d completed + %d failed", len(a.Runs), a.CompletedRuns, a.FailedRuns)
	}
	for _, row := range a.Runs {
		if row.Error == "" && len(row.Metrics) == 0 {
			t.Fatalf("run %d present without metrics", row.Index)
		}
	}
	if err := ValidateArtifact(a); err != nil {
		t.Fatalf("partial artifact invalid: %v", err)
	}
	// Per-point stats must only fold the completed rows.
	for _, pt := range a.Points {
		if pt.Runs > 0 && pt.Stats["ber"].Count != pt.Runs {
			t.Fatalf("point %s stats count %d for %d runs", pt.Label, pt.Stats["ber"].Count, pt.Runs)
		}
	}
}

// TestExecuteGateFailure drives a gate that must fail (goodput floor
// above the achievable rate) and checks the verdict wiring end to end.
func TestExecuteGateFailure(t *testing.T) {
	sp := testSpec()
	sp.Gates = []Gate{{MinGoodput: f64(1e12)}}
	a, err := Execute(context.Background(), &sp, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.GatesPassed {
		t.Fatal("impossible goodput floor passed")
	}
	for _, pt := range a.Points {
		if pt.Passed {
			t.Fatalf("point %s passed", pt.Label)
		}
	}
	if err := ValidateArtifact(a); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteGateWhereFilter checks a where-filtered gate only binds on
// its grid points.
func TestExecuteGateWhereFilter(t *testing.T) {
	sp := testSpec()
	sp.Gates = []Gate{{MinGoodput: f64(1e12), Where: map[string][]any{"ebn0": {6.0}}}}
	a, err := Execute(context.Background(), &sp, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range a.Points {
		wantGates := pt.Label == "ebn0=6"
		if (len(pt.Gates) > 0) != wantGates {
			t.Fatalf("point %s has %d gate checks", pt.Label, len(pt.Gates))
		}
		if pt.Passed == wantGates {
			t.Fatalf("point %s passed=%v", pt.Label, pt.Passed)
		}
	}
	if a.GatesPassed {
		t.Fatal("campaign passed with a failing filtered gate")
	}
	if err := ValidateArtifact(a); err != nil {
		t.Fatal(err)
	}
}

// goldenReducedArtifactHash is the SHA-256 prefix of the encoded
// artifact of the golden ebn0-sweep campaign cut to 4 frames and 2 runs
// per point. Any change to the simulated outcomes of the impaired
// preset's sync chain, decoders or ground verification moves it.
const goldenReducedArtifactHash = "762d28690cc3a428"

// TestGoldenCampaignArtifactHash pins the reduced golden campaign's
// artifact byte for byte.
func TestGoldenCampaignArtifactHash(t *testing.T) {
	sp, err := Preset("ebn0-sweep")
	if err != nil {
		t.Fatal(err)
	}
	sp.Frames, sp.RunsPerPoint = 4, 2
	a, err := Execute(context.Background(), &sp, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(data)
	if got := hex.EncodeToString(h[:8]); got != goldenReducedArtifactHash {
		t.Fatalf("reduced ebn0-sweep artifact hash %s, want %s", got, goldenReducedArtifactHash)
	}
}
