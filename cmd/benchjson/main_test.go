package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func res(pkg, name string, width int, ns float64, b, allocs int64) Result {
	return Result{Package: pkg, Name: name, GOMAXPROCS: width,
		NsPerOp: ns, BytesPerOp: b, AllocsPerOp: allocs}
}

func TestPctDelta(t *testing.T) {
	cases := []struct {
		old, cur float64
		want     string
	}{
		{100, 150, "+50.0%"},
		{100, 80, "-20.0%"},
		{100, 100, "+0.0%"},
		{0, 50, "n/a"},
	}
	for _, c := range cases {
		if got := pctDelta(c.old, c.cur); got != c.want {
			t.Errorf("pctDelta(%v, %v) = %q, want %q", c.old, c.cur, got, c.want)
		}
	}
}

func TestDiffBaselineMatchesByPackageNameWidth(t *testing.T) {
	base := File{Results: []Result{
		res(".", "BenchmarkA", 1, 1000, 64, 2),
		res(".", "BenchmarkA", 4, 400, 64, 2),
		res(".", "BenchmarkGone", 1, 9, 0, 0),
	}}
	cur := File{Results: []Result{
		res(".", "BenchmarkA", 1, 800, 32, 1),
		res(".", "BenchmarkA", 4, 500, 64, 2),
		res(".", "BenchmarkNew", 1, 7, 0, 0),
	}}
	lines := diffBaseline(base, cur)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "-20.0%") {
		t.Errorf("width-1 delta line missing -20%%: %q", lines[0])
	}
	if !strings.Contains(lines[1], "+25.0%") {
		t.Errorf("width-4 delta line missing +25%%: %q", lines[1])
	}
	if !strings.Contains(lines[2], "new, no baseline") {
		t.Errorf("new-benchmark line wrong: %q", lines[2])
	}
	if !strings.Contains(lines[3], "1 baseline results had no current counterpart") {
		t.Errorf("dropped summary wrong: %q", lines[3])
	}
}

func TestDiffBaselineDistinguishesPackages(t *testing.T) {
	// The same benchmark name in two packages must not cross-match.
	base := File{Results: []Result{res("./a", "BenchmarkX", 1, 100, 0, 0)}}
	cur := File{Results: []Result{res("./b", "BenchmarkX", 1, 100, 0, 0)}}
	lines := diffBaseline(base, cur)
	if len(lines) != 2 || !strings.Contains(lines[0], "new, no baseline") {
		t.Fatalf("cross-package match leaked:\n%s", strings.Join(lines, "\n"))
	}
}

func TestCheckVsGate(t *testing.T) {
	multi := File{Results: []Result{
		res(".", "BenchmarkSeq", 1, 1000, 0, 0),
		res(".", "BenchmarkSeq", 4, 960, 0, 0),
		res(".", "BenchmarkPipe", 1, 1010, 0, 0),
		res(".", "BenchmarkPipe", 4, 600, 0, 0),
	}}

	// 960/600 = 1.6x at the widest width: clears 1.0 and 1.5, not 1.7.
	if err := checkVsGate(multi, "BenchmarkPipe:BenchmarkSeq", 1.0); err != nil {
		t.Errorf("1.6x speedup failed min 1.0: %v", err)
	}
	if err := checkVsGate(multi, "BenchmarkPipe:BenchmarkSeq", 1.5); err != nil {
		t.Errorf("1.6x speedup failed min 1.5: %v", err)
	}
	if err := checkVsGate(multi, "BenchmarkPipe:BenchmarkSeq", 1.7); err == nil {
		t.Error("1.6x speedup cleared min 1.7")
	}

	// Width-1 figures must not leak into the comparison: the inverted
	// direction fails even though the challenger wins at width 1.
	if err := checkVsGate(multi, "BenchmarkSeq:BenchmarkPipe", 1.0); err == nil {
		t.Error("inverted gate passed; widest-width figures not used")
	}

	if err := checkVsGate(multi, "BenchmarkPipe", 1.0); err == nil {
		t.Error("spec without colon accepted")
	}
	if err := checkVsGate(multi, ":BenchmarkSeq", 1.0); err == nil {
		t.Error("empty challenger accepted")
	}
	if err := checkVsGate(multi, "BenchmarkPipe:BenchmarkMissing", 1.0); err == nil {
		t.Error("missing baseline benchmark accepted")
	}

	// A single-width sweep (1-core host) has nothing to compare: pass.
	single := File{Results: []Result{
		res(".", "BenchmarkSeq", 1, 1000, 0, 0),
		res(".", "BenchmarkPipe", 1, 1010, 0, 0),
	}}
	if err := checkVsGate(single, "BenchmarkPipe:BenchmarkSeq", 1.2); err != nil {
		t.Errorf("single-width sweep should pass with a note: %v", err)
	}

	// The same benchmark name in two packages at the widest width is
	// ambiguous, not silently first-match.
	ambig := File{Results: []Result{
		res("./a", "BenchmarkPipe", 2, 500, 0, 0),
		res("./b", "BenchmarkPipe", 2, 700, 0, 0),
		res(".", "BenchmarkSeq", 2, 1000, 0, 0),
	}}
	if err := checkVsGate(ambig, "BenchmarkPipe:BenchmarkSeq", 1.0); err == nil {
		t.Error("ambiguous challenger accepted")
	}
}

func TestBenchLineParsing(t *testing.T) {
	m := benchLine.FindStringSubmatch("BenchmarkTrafficEnginePipelined-8   	      85	  13580000 ns/op	 1234 B/op	  56 allocs/op")
	if m == nil {
		t.Fatal("bench line did not parse")
	}
	if m[1] != "BenchmarkTrafficEnginePipelined" || m[3] != "13580000" {
		t.Fatalf("parsed %q ns/op %q", m[1], m[3])
	}
}

// A run without -out must stop with a usage error (exit 2) before any
// benchmark runs, instead of writing a default file into the checkout.
// The test binary re-runs itself with a trailing "benchjson-main"
// argument, which makes the child call main with no flags.
func TestOutRequired(t *testing.T) {
	if flag.Arg(0) == "benchjson-main" {
		flag.CommandLine = flag.NewFlagSet("benchjson", flag.ExitOnError)
		os.Args = []string{"benchjson"}
		main()
		t.Fatal("main returned without -out")
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestOutRequired$", "benchjson-main").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("want exit status 2, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "-out is required") || !strings.Contains(string(out), "Usage") {
		t.Fatalf("no usage error in the output:\n%s", out)
	}
	if strings.Contains(string(out), "wrote") {
		t.Fatalf("benchmarks ran without -out:\n%s", out)
	}
}
