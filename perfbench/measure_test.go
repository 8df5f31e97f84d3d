package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/traffic"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10 shuffled
	for _, c := range []struct{ q, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {0.0, 1}, {1.0, 10}, {0.91, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Fatal("percentile sorted its input in place")
	}
}

// Reference values from Python 3: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 7.5}, [3]float64{0.625, 4.75, 8.875}},
		{[]float64{6}, [3]float64{6, 6, 6}},
	}
	for _, c := range cases {
		got := quartiles(c.in)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", s)
	}
	if s := spread([]float64{0, 0, 0}); s != 0 {
		t.Errorf("spread of zeros = %v, want 0", s)
	}
}

func TestLedgerCountsOnlyModulatedDownlinkBursts(t *testing.T) {
	r := &traffic.Report{
		UplinkBursts: 100, UplinkFailures: 3,
		DeliveredPackets: 500, DownlinkLost: 2,
		PerPopulation: []traffic.PopulationStats{{DeliveredPackets: 350}, {DeliveredPackets: 50}},
	}
	got := ledgerOf(r)
	want := linkLedger{UplinkBursts: 100, UplinkFailures: 3, DownlinkBursts: 100, DownlinkLost: 2}
	if got != want {
		t.Fatalf("ledger = %+v, want %+v", got, want)
	}
}

func TestFailRatio(t *testing.T) {
	l := linkLedger{UplinkBursts: 100, UplinkFailures: 3, DownlinkBursts: 100, DownlinkLost: 2}
	if got := failRatio(l, 0, 0); !near(got, 5.0/200) {
		t.Errorf("burst fail ratio = %v, want 0.025", got)
	}
	if got := failRatio(linkLedger{}, 0, 0); got != 0 {
		t.Errorf("empty ledger fail ratio = %v, want 0", got)
	}
	// 30 of 32 runs completed: the surviving bursts' 97.5% success is
	// scaled by the completed share.
	if got := failRatio(l, 30, 32); !near(got, 1-0.975*30/32) {
		t.Errorf("campaign fail ratio = %v, want %v", got, 1-0.975*30/32)
	}
	if got := failRatio(linkLedger{UplinkBursts: 10}, 32, 32); got != 0 {
		t.Errorf("clean campaign fail ratio = %v, want 0", got)
	}
}

func TestCheckLayerSum(t *testing.T) {
	other, err := checkLayerSum(20, []float64{1, 7, 0.2, 5, 6.3}, 0.05)
	if err != nil || !near(other, 0.5) {
		t.Errorf("within tolerance: other=%v err=%v, want 0.5, nil", other, err)
	}
	if _, err := checkLayerSum(20, []float64{1, 7, 0.2, 5, 5}, 0.05); err == nil {
		t.Error("1.8 ms of 20 unattributed passed a 5% tolerance")
	}
	if _, err := checkLayerSum(20, []float64{12, 10}, 0.05); err == nil {
		t.Error("stages exceeding the frame by 10% passed")
	}
	if _, err := checkLayerSum(0, nil, 0.05); err == nil {
		t.Error("a zero frame time passed")
	}
}

func TestFingerprints(t *testing.T) {
	a := simStats{Frames: 5, Bursts: 31, DeliveredBits: 5952, BitErrs: 3}
	b := a
	if err := sameFingerprints([]simStats{a, b, a}); err != nil {
		t.Fatalf("identical fingerprints: %v", err)
	}
	b.DownlinkLost = 1
	if err := sameFingerprints([]simStats{a, b}); !errors.Is(err, errFingerprint) {
		t.Fatalf("differing fingerprints: err = %v", err)
	}
	if a.hash() == b.hash() {
		t.Fatal("differing fingerprints hash alike")
	}
	var total simStats
	total.add(a)
	total.add(b)
	if want := (simStats{Frames: 10, Bursts: 62, DeliveredBits: 11904, BitErrs: 6, DownlinkLost: 1}); total != want {
		t.Fatalf("sum = %+v, want %+v", total, want)
	}

	dir := filepath.Join(t.TempDir(), "fp")
	if err := recordFingerprint(dir, "clean-seed1", a); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if err := recordFingerprint(dir, "clean-seed1", a); err != nil {
		t.Fatalf("same fingerprint again: %v", err)
	}
	if err := recordFingerprint(dir, "clean-seed1", b); !errors.Is(err, errFingerprint) {
		t.Fatalf("changed fingerprint: err = %v", err)
	}
	if err := recordFingerprint(dir, "clean-seed2", b); err != nil {
		t.Fatalf("other seed: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "clean-seed1.txt"))
	if err != nil || string(data) != a.String()+"\n" {
		t.Fatalf("recorded %q (%v), want %q", data, err, a.String())
	}
}
