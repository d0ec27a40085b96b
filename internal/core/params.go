package core

import (
	"fmt"
	"slices"
	"strconv"

	"speedofdata/internal/circuits"
	"speedofdata/internal/microarch"
	"speedofdata/internal/noise"
)

// Param is one row of the parameter table: an experiment setting under the
// one name it has as a qsd flag and as an HTTP query parameter.
type Param struct {
	// Name is the flag and query spelling; Alias, when set, is a second
	// query spelling.
	Name, Alias string
	// Help is the one-line description of the setting.
	Help string
	// Min and Max bound a numeric setting for every caller: Min <= v < Max,
	// with Max 0 meaning no upper bound.  NaN is outside every range.
	Min, Max float64
	// Cap is the largest value an HTTP client may ask for and Floor the
	// smallest nonzero one (0 = none).  The CLI may run arbitrarily heavy
	// experiments on the operator's own machine; HTTP clients may not pin
	// the shared worker pool for hours with one request.
	Cap, Floor float64
	// Field points at the setting the row binds, e.Bits or a field of p:
	// an *int, *int64, *float64, *bool or *string.
	Field func(e *Experiments, p *RunParams) any
}

// Params is the parameter table.  qsd registers one flag per row and the
// HTTP server reads one query parameter per row; the defaults are those of
// NewExperiments and DefaultRunParams, and the experiments that honour a row
// are those whose ExperimentInfo.Params name it.
var Params = []Param{
	{Name: "bits", Help: "benchmark operand width", Min: 1, Cap: 128,
		Field: func(e *Experiments, _ *RunParams) any { return &e.Bits }},
	{Name: "trials", Help: "Monte Carlo trials (the cap under ci)", Min: 1, Cap: 10_000_000,
		Field: func(_ *Experiments, p *RunParams) any { return &p.Trials }},
	{Name: "seed", Help: "Monte Carlo seed",
		Field: func(_ *Experiments, p *RunParams) any { return &p.Seed }},
	{Name: "buckets", Help: "time buckets of the demand profiles", Min: 1, Cap: 100_000,
		Field: func(_ *Experiments, p *RunParams) any { return &p.Buckets }},
	{Name: "max-scale", Alias: "scale", Help: "largest resource scale swept", Min: 1, Cap: 4096,
		Field: func(_ *Experiments, p *RunParams) any { return &p.MaxScale }},
	{Name: "benchmark", Help: "benchmark kernel: QRCA, QCLA or QFT",
		Field: func(_ *Experiments, p *RunParams) any { return &p.Benchmark }},
	{Name: "arch", Help: "one architecture, QLA, GQLA, CQLA, GCQLA or Fully-Multiplexed (fm); empty = all, or Fully-Multiplexed for buffersweep",
		Field: func(_ *Experiments, p *RunParams) any { return &p.Arch }},
	{Name: "buffer", Help: "buffer capacity: encoded ancillae per source, physical qubits per crossbar or EPR pairs per link (0 = infinite)", Cap: 1_000_000,
		Field: func(_ *Experiments, p *RunParams) any { return &p.Buffer }},
	{Name: "tiles", Help: "mesh tile bound: netsweep sweeps powers of two up to it, the others plan one mesh of at most this many tiles", Min: 1, Cap: 64,
		Field: func(_ *Experiments, p *RunParams) any { return &p.Tiles }},
	{Name: "faults", Help: "mesh boundaries killed one by one, capped at the mesh's boundary count", Cap: 64,
		Field: func(_ *Experiments, p *RunParams) any { return &p.Faults }},
	{Name: "sparse", Help: "sparse Monte Carlo sampler: statistically equivalent to the dense default, which is byte-reproducible",
		Field: func(_ *Experiments, p *RunParams) any { return &p.Sparse }},
	{Name: "bitsliced", Help: "bit-sliced Monte Carlo executor, 64 trials per word operation (not with sparse)",
		Field: func(_ *Experiments, p *RunParams) any { return &p.BitSliced }},
	// A very tight half-width keeps a shared server's workers busy until
	// the trials cap is spent, hence the floor.
	{Name: "ci", Help: "sequential sampling: stop at this relative confidence-interval half-width, capped at trials (0 = fixed budget; not with sparse)",
		Max: 1, Floor: 0.001,
		Field: func(_ *Experiments, p *RunParams) any { return &p.CI }},
	{Name: "conf", Help: fmt.Sprintf("confidence level of ci (0 = %v)", noise.DefaultConfidence), Max: 1, Cap: 0.999,
		Field: func(_ *Experiments, p *RunParams) any { return &p.Conf }},
}

// RequestError is an experiment refusing a setting the parameter table's
// ranges admit but the experiment cannot run with: a mesh scenario on one
// tile, Shor on a 1-bit modulus.  Like a range violation it is a property
// of the request, so the server answers it with 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func requestErrorf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// Set parses a query value into the row's setting: numbers in base 10,
// booleans as strconv.ParseBool reads them, names verbatim.
func (prm Param) Set(e *Experiments, p *RunParams, s string) error {
	var err error
	switch f := prm.Field(e, p).(type) {
	case *int:
		*f, err = strconv.Atoi(s)
	case *int64:
		*f, err = strconv.ParseInt(s, 10, 64)
	case *float64:
		*f, err = strconv.ParseFloat(s, 64)
	case *bool:
		*f, err = strconv.ParseBool(s)
	case *string:
		*f = s
	}
	return err
}

// Range describes the values a numeric row accepts from every caller.
func (prm Param) Range() string {
	switch {
	case prm.Max != 0:
		return fmt.Sprintf("in [%s, %s)", num(prm.Min), num(prm.Max))
	case prm.Min == 0:
		return "non-negative"
	case prm.Min == 1:
		return "positive"
	}
	return "at least " + num(prm.Min)
}

// UsedBy returns the ids of the experiments whose Params name the row.
func (prm Param) UsedBy() []string {
	var ids []string
	for _, info := range ExperimentInfos() {
		if slices.Contains(info.Params, prm.Name) {
			ids = append(ids, info.ID)
		}
	}
	return ids
}

// check reports a numeric setting outside the row's range or, for an HTTP
// client, past its cap or floor.
func (prm Param) check(e *Experiments, p *RunParams, client bool) error {
	var v float64
	switch f := prm.Field(e, p).(type) {
	case *int:
		v = float64(*f)
	case *float64:
		v = *f
	default:
		return nil // seeds, selectors and names have no range
	}
	switch {
	case !(v >= prm.Min && (prm.Max == 0 || v < prm.Max)):
		return fmt.Errorf("%s must be %s, got %s", prm.Name, prm.Range(), num(v))
	case client && prm.Cap != 0 && v > prm.Cap:
		return fmt.Errorf("invalid %s: %s exceeds the server limit %s", prm.Name, num(v), num(prm.Cap))
	case client && v != 0 && v < prm.Floor:
		return fmt.Errorf("invalid %s: %s is below the server minimum %s", prm.Name, num(v), num(prm.Floor))
	}
	return nil
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// ValidateParams checks the operand width and run parameters a caller set:
// every table row within its range and, when client is set (an HTTP
// request), within its cap or floor; then the rules that tie parameters
// together, which the table cannot express.
func ValidateParams(e *Experiments, p *RunParams, client bool) error {
	for _, prm := range Params {
		if err := prm.check(e, p, client); err != nil {
			return err
		}
	}
	// Sparse cannot combine with the bit-sliced executor or the CI mode
	// (which implies bit-sliced); ci+bitsliced is redundant but consistent,
	// so it stays allowed.
	if p.Sparse && (p.BitSliced || p.CI > 0) {
		conflict := []string{"sparse"}
		if p.BitSliced {
			conflict = append(conflict, "bitsliced")
		}
		if p.CI > 0 {
			conflict = append(conflict, "ci")
		}
		return &SamplingConflictError{Selected: conflict}
	}
	if p.Conf != 0 && p.CI == 0 {
		return fmt.Errorf("conf requires ci (a confidence level needs a half-width target)")
	}
	if _, err := circuits.ParseBenchmark(p.Benchmark); err != nil {
		return err
	}
	if p.Arch != "" {
		if _, err := microarch.ParseArchitecture(p.Arch); err != nil {
			return err
		}
	}
	return nil
}
