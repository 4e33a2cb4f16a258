package fuzzy

import (
	"bytes"
	"strings"
	"testing"
)

const sampleFIS = `
# Figure 2 style system.
OUTPUT income 40000 160000
TERM income low  trap -inf -inf 70000 100000
TERM income med  tri 70000 100000 130000
TERM income high trap 100000 130000 inf inf
INPUT valuation 0 10
TERM valuation low  trap -inf -inf 3 5
TERM valuation med  tri 3 5 7
TERM valuation high trap 5 7 inf inf
RULE IF valuation IS low THEN income IS low
RULE IF valuation IS med THEN income IS med
RULE IF valuation IS high THEN income IS high WEIGHT 0.9
`

func TestParseFIS(t *testing.T) {
	sys, err := ParseFIS(strings.NewReader(sampleFIS), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Output().Name != "income" {
		t.Errorf("output = %q", sys.Output().Name)
	}
	if got := sys.Inputs(); len(got) != 1 || got[0] != "valuation" {
		t.Errorf("inputs = %v", got)
	}
	if got := len(sys.Rules()); got != 3 {
		t.Errorf("rules = %d", got)
	}
	if w := sys.Rules()[2].Weight; w != 0.9 {
		t.Errorf("rule 3 weight = %g", w)
	}
	// The parsed system evaluates sensibly.
	lo, err := sys.Evaluate(map[string]float64{"valuation": 1})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := sys.Evaluate(map[string]float64{"valuation": 9})
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < hi) {
		t.Errorf("lo %g, hi %g", lo, hi)
	}
}

func TestDumpParseRoundTrip(t *testing.T) {
	orig, err := ParseFIS(strings.NewReader(sampleFIS), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DumpFIS(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseFIS(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatalf("re-parse of dump failed: %v\n%s", err, buf.String())
	}
	// Same evaluations across the domain.
	for x := 0.0; x <= 10; x += 0.7 {
		in := map[string]float64{"valuation": x}
		a, errA := orig.Evaluate(in)
		b, errB := back.Evaluate(in)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("x=%g: error mismatch %v vs %v", x, errA, errB)
		}
		if errA == nil && a != b {
			t.Errorf("x=%g: %g vs %g", x, a, b)
		}
	}
}

func TestDumpGaussAndSingleton(t *testing.T) {
	out, err := NewVariable("y", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGaussian(0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.AddTerm("mid", g); err != nil {
		t.Fatal(err)
	}
	if err := out.AddTerm("spike", Singleton{X: 0.9}); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DumpFIS(&buf, sys); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "gauss 0.5 0.1") || !strings.Contains(s, "singleton 0.9") {
		t.Errorf("dump missing shapes:\n%s", s)
	}
	if _, err := ParseFIS(strings.NewReader(s), Options{}); err != nil {
		t.Errorf("dump does not re-parse: %v", err)
	}
}

func TestParseFISErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no output", "INPUT x 0 1\nTERM x a tri 0 0.5 1\n"},
		{"input before output", "INPUT x 0 1\nOUTPUT y 0 1\n"},
		{"double output", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nOUTPUT z 0 1\n"},
		{"bad bounds", "OUTPUT y zero one\n"},
		{"short output", "OUTPUT y 0\n"},
		{"term unknown var", "OUTPUT y 0 1\nTERM z a tri 0 0.5 1\n"},
		{"bad shape", "OUTPUT y 0 1\nTERM y a blob 1 2 3\n"},
		{"tri arity", "OUTPUT y 0 1\nTERM y a tri 1 2\n"},
		{"trap arity", "OUTPUT y 0 1\nTERM y a trap 1 2 3\n"},
		{"gauss arity", "OUTPUT y 0 1\nTERM y a gauss 1\n"},
		{"singleton arity", "OUTPUT y 0 1\nTERM y a singleton\n"},
		{"bad number", "OUTPUT y 0 1\nTERM y a tri 0 x 1\n"},
		{"unknown keyword", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nBOGUS\n"},
		{"duplicate var", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nINPUT y 0 1\n"},
		{"termless output", "OUTPUT y 0 1\n"},
		{"bad rule", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nRULE IF broken\n"},
		{"rule unknown input", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nRULE IF x IS a THEN y IS a\n"},
		{"infinite output bound", "OUTPUT y 0 inf\nTERM y a trap 0 0.5 1 inf\n"},
		{"NaN input bound", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nINPUT x NaN 1\nTERM x a tri 0 0.5 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseFIS(strings.NewReader(tc.src), Options{}); err == nil {
				t.Errorf("accepted:\n%s", tc.src)
			}
		})
	}
	// Engine options NewSystem rejects must fail the load, not the first
	// evaluation.
	const minimal = "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nINPUT x 0 1\nTERM x a tri 0 0.5 1\nRULE IF x IS a THEN y IS a\n"
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"resolution one", Options{Resolution: 1}},
		{"negative resolution", Options{Resolution: -5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseFIS(strings.NewReader(minimal), tc.opts); err == nil {
				t.Errorf("accepted %+v", tc.opts)
			}
		})
	}
}

func TestDumpNilSystem(t *testing.T) {
	if err := DumpFIS(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil system accepted")
	}
}

func TestSampleSurface(t *testing.T) {
	v, err := NewVariable("x", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.ThreeTerms("low", "med", "high"); err != nil {
		t.Fatal(err)
	}
	xs, grades, err := SampleSurface(v, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 11 || xs[0] != 0 || xs[10] != 10 {
		t.Errorf("xs = %v", xs)
	}
	if len(grades) != 3 {
		t.Errorf("terms sampled = %d", len(grades))
	}
	if grades["low"][0] != 1 || grades["high"][10] != 1 {
		t.Error("shoulder grades wrong")
	}
	for _, g := range grades {
		for i, y := range g {
			if y < 0 || y > 1 {
				t.Fatalf("grade[%d] = %g", i, y)
			}
		}
	}
	if _, _, err := SampleSurface(nil, 5); err == nil {
		t.Error("nil variable accepted")
	}
	if _, _, err := SampleSurface(v, 1); err == nil {
		t.Error("n=1 accepted")
	}
}
