// Package tevot is the public API of the TEVoT reproduction: supervised
// timing-error models for functional units under dynamic voltage and
// temperature variations (Jiao, Ma, Chang, Jiang — DAC 2020).
//
// The package re-exports the stable surface of the internal packages so
// a downstream user can run the whole flow — build a gate-level
// functional unit, characterize its dynamic delay at an operating
// corner, train the random-forest delay model, and predict timing
// errors at arbitrary clock speeds — without reaching into internal/.
//
// Quickstart:
//
//	fu, _ := tevot.NewFunctionalUnit(tevot.IntAdd32)
//	corner := tevot.Corner{V: 0.85, T: 50}
//	train := tevot.RandomWorkload(tevot.IntAdd32, 20000, 1)
//	base, _ := tevot.CalibrateBaseClock(fu, corner, train)
//	trace, _ := tevot.Characterize(fu, corner, train, nil)
//	model, _ := tevot.Train(tevot.IntAdd32, []*tevot.Trace{trace}, tevot.DefaultConfig())
//	errs, _ := model.Errors(corner, test, base/1.10) // 10 % overclock
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package tevot

import (
	"context"
	"fmt"
	"io"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/workload"
)

// Functional units (the paper's four modeling targets).
const (
	// IntAdd32 is the 32-bit ripple-carry integer adder.
	IntAdd32 = circuits.IntAdd32
	// IntMul32 is the 32-bit truncated array integer multiplier.
	IntMul32 = circuits.IntMul32
	// FPAdd32 is the IEEE-754 single-precision adder.
	FPAdd32 = circuits.FPAdd32
	// FPMul32 is the IEEE-754 single-precision multiplier.
	FPMul32 = circuits.FPMul32
)

// FU identifies a functional unit.
type FU = circuits.FU

// AllFUs lists the four functional units in reporting order.
var AllFUs = circuits.AllFUs

// Corner is an operating condition: supply voltage (V) and junction
// temperature (°C).
type Corner = cells.Corner

// Grid is an operating-condition sweep; TableIGrid is the paper's.
type Grid = core.Grid

// TableIGrid returns the paper's Table I sweep: 100 (V, T) corners and
// three clock speedups.
func TableIGrid() Grid { return core.TableIGrid() }

// FUnit is a built functional unit: gate-level netlist plus cached
// per-corner timing.
type FUnit = core.FUnit

// NewFunctionalUnit generates the unit's gate-level netlist and prepares
// it for timing analysis.
func NewFunctionalUnit(fu FU) (*FUnit, error) { return core.NewFUnit(fu) }

// Stream is an operand sequence driving a functional unit.
type Stream = workload.Stream

// OperandPair is one cycle's two 32-bit operands.
type OperandPair = workload.OperandPair

// RandomWorkload generates n+1 operand pairs (n simulated cycles) with
// the homogeneous 2-D distribution the paper trains on; float units get
// value-uniform float32 operands.
func RandomWorkload(fu FU, n int, seed int64) *Stream {
	return workload.Random(fu.IsFloat(), n+1, seed)
}

// Trace is a dynamic-timing-analysis result: per-cycle dynamic delays
// and ground-truth timing errors.
type Trace = core.Trace

// Characterize runs back-annotated gate-level simulation of the unit
// over the stream at a corner — the paper's DTA phase. clocks lists
// capture periods (ps) for ground-truth error labels; nil for
// delays only.
func Characterize(u *FUnit, corner Corner, s *Stream, clocks []float64) (*Trace, error) {
	return core.CharacterizeOptsContext(context.Background(), u, corner, s, clocks, core.CharacterizeOptions{})
}

// CharacterizeWithSpeedups derives the capture periods from the unit's
// error-free base clock: period = base / (1 + speedup).
func CharacterizeWithSpeedups(u *FUnit, corner Corner, s *Stream, speedups []float64) (*Trace, error) {
	if u == nil {
		return nil, fmt.Errorf("tevot: CharacterizeWithSpeedups called with a nil functional unit")
	}
	clocks, err := u.ClockPeriods(corner, speedups)
	if err != nil {
		return nil, err
	}
	return Characterize(u, corner, s, clocks)
}

// CalibrateBaseClock measures the unit's max dynamic delay over a
// stream at a corner and installs it as the error-free base clock that
// CharacterizeWithSpeedups divides, returning it (ps).
func CalibrateBaseClock(u *FUnit, corner Corner, s *Stream) (float64, error) {
	return u.CalibrateBaseClockOptsContext(context.Background(), corner, s, core.CharacterizeOptions{})
}

// Config controls model training; DefaultConfig is the paper's setup
// (random forest, 10 trees, all features, with computation history).
type Config = core.Config

// DefaultConfig returns the paper's training configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// Model is a trained TEVoT delay/error predictor.
type Model = core.Model

// Train fits a TEVoT model from characterization traces.
func Train(fu FU, traces []*Trace, cfg Config) (*Model, error) {
	return core.Train(fu, traces, cfg)
}

// LoadModel reads a model previously serialized with Model.Save, so
// pre-trained models can be shipped and reused without access to the
// characterization data.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// ErrorPredictor is the interface shared by TEVoT and the baselines.
type ErrorPredictor = core.ErrorPredictor

// NewDelayBased builds the paper's Delay-based baseline from offline
// traces.
func NewDelayBased(fu FU, offline []*Trace) (ErrorPredictor, error) {
	return core.NewDelayBased(fu, offline)
}

// NewTERBased builds the paper's TER-based baseline from offline traces.
func NewTERBased(fu FU, offline []*Trace, seed int64) (ErrorPredictor, error) {
	return core.NewTERBased(fu, offline, seed)
}

// Evaluation scores a predictor against simulation ground truth.
type Evaluation = core.Evaluation

// Evaluate scores a predictor on a trace at clock index k (the paper's
// Eq. 4 prediction accuracy).
func Evaluate(p ErrorPredictor, tr *Trace, k int) (Evaluation, error) {
	return core.EvaluateAt(p, tr, k)
}

// EvaluateAll scores a predictor across every clock of every trace and
// returns the per-point evaluations and the mean accuracy.
func EvaluateAll(p ErrorPredictor, traces []*Trace) ([]Evaluation, float64, error) {
	return core.EvaluateAll(p, traces)
}
