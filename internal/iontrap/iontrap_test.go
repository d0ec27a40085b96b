package iontrap

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultTechnologyValues(t *testing.T) {
	tech := Default()
	if err := tech.Validate(); err != nil {
		t.Fatalf("default technology invalid: %v", err)
	}
	want := map[Op]Microseconds{
		OpOneQubitGate: 1,
		OpTwoQubitGate: 10,
		OpMeasure:      50,
		OpZeroPrep:     51,
		OpStraightMove: 1,
		OpTurn:         10,
	}
	for op, w := range want {
		if got := tech.LatencyOf(op); got != w {
			t.Errorf("LatencyOf(%s) = %v, want %v", op, got, w)
		}
	}
}

func TestValidateMissingOp(t *testing.T) {
	tech := Default()
	delete(tech.Latency, OpMeasure)
	if err := tech.Validate(); err == nil {
		t.Fatal("expected error for missing measurement latency")
	}
}

func TestValidateNonPositive(t *testing.T) {
	tech := Default()
	tech.Latency[OpTurn] = 0
	if err := tech.Validate(); err == nil {
		t.Fatal("expected error for zero turn latency")
	}
	tech.Latency[OpTurn] = -3
	if err := tech.Validate(); err == nil {
		t.Fatal("expected error for negative turn latency")
	}
}

func TestValidateNilTable(t *testing.T) {
	tech := Technology{Name: "empty"}
	if err := tech.Validate(); err == nil {
		t.Fatal("expected error for nil latency table")
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpOneQubitGate: "t1q",
		OpTwoQubitGate: "t2q",
		OpMeasure:      "tmeas",
		OpZeroPrep:     "tprep",
		OpStraightMove: "tmove",
		OpTurn:         "tturn",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(99).String(); got != "op(99)" {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestExprSimpleFactoryLatency(t *testing.T) {
	// The paper's hand-optimised simple factory schedule (Section 4.3):
	// tprep + 2*tmeas + 6*t2q + 2*t1q + 8*tturn + 30*tmove = 323 µs.
	e := Expr(
		OpZeroPrep, 1,
		OpMeasure, 2,
		OpTwoQubitGate, 6,
		OpOneQubitGate, 2,
		OpTurn, 8,
		OpStraightMove, 30,
	)
	if got := e.Eval(Default()); got != 323 {
		t.Fatalf("simple factory latency = %v µs, want 323", got)
	}
}

func TestExprTable5Latencies(t *testing.T) {
	tech := Default()
	cases := []struct {
		name string
		expr LatencyExpr
		want Microseconds
	}{
		{"zero prep", Expr(OpZeroPrep, 1, OpOneQubitGate, 1, OpTurn, 2, OpStraightMove, 1), 73},
		{"cx stage", Expr(OpTwoQubitGate, 3, OpTurn, 6, OpStraightMove, 5), 95},
		{"cat state prep", Expr(OpTwoQubitGate, 2, OpTurn, 4, OpStraightMove, 2), 62},
		{"verification", Expr(OpMeasure, 1, OpTwoQubitGate, 1, OpTurn, 2, OpStraightMove, 2), 82},
		{"b/p correction", Expr(OpMeasure, 1, OpTwoQubitGate, 2, OpTurn, 6, OpStraightMove, 8), 138},
	}
	for _, c := range cases {
		if got := c.expr.Eval(tech); got != c.want {
			t.Errorf("%s latency = %v, want %v (expr %s)", c.name, got, c.want, c.expr)
		}
	}
}

func TestExprString(t *testing.T) {
	e := Expr(OpTwoQubitGate, 3, OpTurn, 6, OpStraightMove, 5)
	if got := e.String(); got != "3*t2q + 5*tmove + 6*tturn" {
		t.Errorf("String() = %q", got)
	}
	if got := NewLatencyExpr().String(); got != "0" {
		t.Errorf("empty expr String() = %q, want 0", got)
	}
	single := Expr(OpMeasure, 1)
	if got := single.String(); got != "tmeas" {
		t.Errorf("single-term String() = %q, want tmeas", got)
	}
}

func TestExprPanicsOnBadArgs(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("odd args", func() { Expr(OpMeasure) })
	assertPanics("non-op", func() { Expr("tmeas", 1) })
	assertPanics("non-int", func() { Expr(OpMeasure, "1") })
	assertPanics("zero-value expr Add", func() {
		var e LatencyExpr
		e.Add(OpMeasure, 1)
	})
}

func TestMicrosecondsMilliseconds(t *testing.T) {
	if got := Microseconds(323).Milliseconds(); math.Abs(got-0.323) > 1e-12 {
		t.Errorf("Milliseconds() = %v, want 0.323", got)
	}
}

// Property: evaluating the union of two expressions' terms equals the sum
// of their evaluations.
func TestExprLinearityProperty(t *testing.T) {
	tech := Default()
	f := func(a1, a2, b1, b2 uint8) bool {
		x := Expr(OpTwoQubitGate, int(a1%16), OpTurn, int(a2%16))
		y := Expr(OpMeasure, int(b1%16), OpStraightMove, int(b2%16))
		sum := Expr(OpTwoQubitGate, int(a1%16), OpTurn, int(a2%16), OpMeasure, int(b1%16), OpStraightMove, int(b2%16))
		lhs := sum.Eval(tech)
		rhs := x.Eval(tech) + y.Eval(tech)
		return math.Abs(float64(lhs-rhs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: multiplying every term count by k multiplies the evaluation by k.
func TestExprScaleProperty(t *testing.T) {
	tech := Default()
	f := func(n1, n2, k uint8) bool {
		x := Expr(OpTwoQubitGate, int(n1%16), OpZeroPrep, int(n2%16))
		kk := int(k % 8)
		lhs := Expr(OpTwoQubitGate, kk*int(n1%16), OpZeroPrep, kk*int(n2%16)).Eval(tech)
		rhs := Microseconds(float64(kk) * float64(x.Eval(tech)))
		return math.Abs(float64(lhs-rhs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
