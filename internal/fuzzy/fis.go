package fuzzy

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements a plain-text serialization of a complete fuzzy
// inference system — the equivalent of the Matlab Fuzzy Logic Toolbox's
// .fis files the paper's authors would have used. The format is line
// oriented:
//
//	# comment
//	OUTPUT income 40000 160000
//	TERM income low  trap -inf -inf 30 60
//	TERM income med  tri 30 60 90
//	TERM income high gauss 100 15
//	INPUT valuation 0 10
//	TERM valuation low ...
//	RULE IF valuation IS low THEN income IS low WEIGHT 0.5
//
// Shapes: tri a b c | trap a b c d | gauss mean sigma | singleton x.
// "-inf"/"inf" are legal trapezoid feet (open shoulders).

// DumpFIS writes the system in the text format. Terms serialize in their
// insertion order; rules in addition order.
func DumpFIS(w io.Writer, s *System) error {
	if s == nil {
		return fmt.Errorf("fuzzy: dump of nil system")
	}
	write := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	dumpVar := func(kw string, v *Variable) error {
		if err := write("%s %s %s %s\n", kw, v.Name, num(v.Lo), num(v.Hi)); err != nil {
			return err
		}
		for _, t := range v.Terms() {
			f, err := v.Term(t)
			if err != nil {
				return err
			}
			shape, err := shapeOf(f)
			if err != nil {
				return fmt.Errorf("fuzzy: variable %q term %q: %w", v.Name, t, err)
			}
			if err := write("TERM %s %s %s\n", v.Name, t, shape); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dumpVar("OUTPUT", s.output); err != nil {
		return err
	}
	names := s.Inputs()
	sort.Strings(names)
	for _, n := range names {
		if err := dumpVar("INPUT", s.inputs[n]); err != nil {
			return err
		}
	}
	for _, r := range s.rules {
		line := fmt.Sprintf("RULE IF %s THEN %s IS %s", r.Antecedent.String(), s.output.Name, r.OutputTerm)
		if r.Weight != 1 {
			line += " WEIGHT " + num(r.Weight)
		}
		if err := write("%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

func num(x float64) string {
	if math.IsInf(x, -1) {
		return "-inf"
	}
	if math.IsInf(x, 1) {
		return "inf"
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

func shapeOf(f MembershipFunc) (string, error) {
	switch m := f.(type) {
	case Triangular:
		return fmt.Sprintf("tri %s %s %s", num(m.A), num(m.B), num(m.C)), nil
	case Trapezoid:
		return fmt.Sprintf("trap %s %s %s %s", num(m.A), num(m.B), num(m.C), num(m.D)), nil
	case Gaussian:
		return fmt.Sprintf("gauss %s %s", num(m.Mean), num(m.Sigma)), nil
	case Singleton:
		return fmt.Sprintf("singleton %s", num(m.X)), nil
	case Sigmoid:
		return fmt.Sprintf("sigmoid %s %s", num(m.Center), num(m.Slope)), nil
	case Bell:
		return fmt.Sprintf("bell %s %s %s", num(m.Width), num(m.Slope), num(m.Center)), nil
	default:
		return "", fmt.Errorf("unserializable membership function %T", f)
	}
}

// ParseFIS reads a system in the text format. The engine options are the
// caller's (they are runtime configuration, not part of the model).
func ParseFIS(r io.Reader, opts Options) (*System, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("fuzzy: read fis: %w", err)
	}
	var output *Variable
	vars := make(map[string]*Variable)
	var inputOrder []string
	var pendingRules []string

	for lineNo, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		kw := strings.ToUpper(fields[0])
		fail := func(format string, args ...any) error {
			return fmt.Errorf("fuzzy: fis line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch kw {
		case "OUTPUT", "INPUT":
			if len(fields) != 4 {
				return nil, fail("%s needs name lo hi", kw)
			}
			lo, err1 := parseNum(fields[2])
			hi, err2 := parseNum(fields[3])
			if err1 != nil || err2 != nil {
				return nil, fail("bad bounds %q %q", fields[2], fields[3])
			}
			v, err := NewVariable(fields[1], lo, hi)
			if err != nil {
				return nil, fail("%v", err)
			}
			if _, dup := vars[v.Name]; dup {
				return nil, fail("duplicate variable %q", v.Name)
			}
			vars[v.Name] = v
			if kw == "OUTPUT" {
				if output != nil {
					return nil, fail("second OUTPUT")
				}
				// The system is built once the whole file is read, when
				// the output's terms have arrived.
				output = v
			} else {
				if output == nil {
					return nil, fail("INPUT before OUTPUT")
				}
				// Terms arrive on later lines; attach to the system once
				// the whole file is read.
				inputOrder = append(inputOrder, v.Name)
			}
		case "TERM":
			if len(fields) < 4 {
				return nil, fail("TERM needs variable name shape …")
			}
			v, ok := vars[fields[1]]
			if !ok {
				return nil, fail("TERM for unknown variable %q", fields[1])
			}
			f, err := parseShape(fields[3], fields[4:])
			if err != nil {
				return nil, fail("%v", err)
			}
			if err := v.AddTerm(fields[2], f); err != nil {
				return nil, fail("%v", err)
			}
		case "RULE":
			// Defer rule parsing until all variables and terms exist.
			pendingRules = append(pendingRules, strings.TrimSpace(line[len("RULE"):]))
		default:
			return nil, fail("unknown keyword %q", fields[0])
		}
	}
	if output == nil {
		return nil, fmt.Errorf("fuzzy: fis has no OUTPUT")
	}
	sys, err := NewSystem(output, opts)
	if err != nil {
		return nil, err
	}
	for _, name := range inputOrder {
		if err := sys.AddInput(vars[name]); err != nil {
			return nil, err
		}
	}
	for _, src := range pendingRules {
		if err := sys.AddRuleText(src); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

func parseNum(s string) (float64, error) {
	switch strings.ToLower(s) {
	case "-inf":
		return math.Inf(-1), nil
	case "inf", "+inf":
		return math.Inf(1), nil
	default:
		return strconv.ParseFloat(s, 64)
	}
}

func parseShape(kind string, args []string) (MembershipFunc, error) {
	nums := make([]float64, len(args))
	for i, a := range args {
		v, err := parseNum(a)
		if err != nil {
			return nil, fmt.Errorf("bad shape parameter %q", a)
		}
		nums[i] = v
	}
	switch strings.ToLower(kind) {
	case "tri":
		if len(nums) != 3 {
			return nil, fmt.Errorf("tri needs 3 parameters, got %d", len(nums))
		}
		f, err := NewTriangular(nums[0], nums[1], nums[2])
		return f, err
	case "trap":
		if len(nums) != 4 {
			return nil, fmt.Errorf("trap needs 4 parameters, got %d", len(nums))
		}
		f, err := NewTrapezoid(nums[0], nums[1], nums[2], nums[3])
		return f, err
	case "gauss":
		if len(nums) != 2 {
			return nil, fmt.Errorf("gauss needs 2 parameters, got %d", len(nums))
		}
		f, err := NewGaussian(nums[0], nums[1])
		return f, err
	case "singleton":
		if len(nums) != 1 {
			return nil, fmt.Errorf("singleton needs 1 parameter, got %d", len(nums))
		}
		return Singleton{X: nums[0]}, nil
	case "sigmoid":
		if len(nums) != 2 {
			return nil, fmt.Errorf("sigmoid needs 2 parameters, got %d", len(nums))
		}
		f, err := NewSigmoid(nums[0], nums[1])
		return f, err
	case "bell":
		if len(nums) != 3 {
			return nil, fmt.Errorf("bell needs 3 parameters, got %d", len(nums))
		}
		f, err := NewBell(nums[0], nums[1], nums[2])
		return f, err
	default:
		return nil, fmt.Errorf("unknown shape %q", kind)
	}
}

// SampleSurface evaluates the membership of every term of a variable at n
// evenly spaced points — the data behind membership-function plots like the
// paper's Figure 2 sketches.
func SampleSurface(v *Variable, n int) (xs []float64, grades map[string][]float64, err error) {
	if v == nil {
		return nil, nil, fmt.Errorf("fuzzy: nil variable")
	}
	if n < 2 {
		return nil, nil, fmt.Errorf("fuzzy: need ≥ 2 samples, got %d", n)
	}
	xs = make([]float64, n)
	grades = make(map[string][]float64, len(v.Terms()))
	for _, t := range v.Terms() {
		grades[t] = make([]float64, n)
	}
	dx := (v.Hi - v.Lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := v.Lo + float64(i)*dx
		xs[i] = x
		for _, t := range v.Terms() {
			f, err := v.Term(t)
			if err != nil {
				return nil, nil, err
			}
			grades[t][i] = f.Grade(x)
		}
	}
	return xs, grades, nil
}
