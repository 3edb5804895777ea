package tevot_test

import (
	"bytes"

	"testing"

	"tevot"
)

// TestPublicAPIFlow exercises the exact sequence the package doc
// advertises, through the facade only.
func TestPublicAPIFlow(t *testing.T) {
	fu, err := tevot.NewFunctionalUnit(tevot.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corner := tevot.Corner{V: 0.85, T: 50}
	train := tevot.RandomWorkload(tevot.IntAdd32, 800, 1)
	base, err := tevot.CalibrateBaseClock(fu, corner, train)
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 {
		t.Fatal("non-positive base clock")
	}
	trace, err := tevot.CharacterizeWithSpeedups(fu, corner, train, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Cycles() != 800 {
		t.Fatalf("trace has %d cycles, want 800", trace.Cycles())
	}
	model, err := tevot.Train(tevot.IntAdd32, []*tevot.Trace{trace}, tevot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	test := tevot.RandomWorkload(tevot.IntAdd32, 300, 2)
	errs, err := model.Errors(corner, test, base/1.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 300 {
		t.Fatalf("got %d predictions for 300 cycles", len(errs))
	}
	testTrace, err := tevot.CharacterizeWithSpeedups(fu, corner, test, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := tevot.Evaluate(model, testTrace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.8 {
		t.Errorf("facade-flow accuracy %.3f suspiciously low", ev.Accuracy)
	}
}

// TestPublicAPIBaselines builds the baselines through the facade and
// confirms they are interchangeable with the TEVoT model.
func TestPublicAPIBaselines(t *testing.T) {
	fu, err := tevot.NewFunctionalUnit(tevot.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corner := tevot.Corner{V: 0.81, T: 0}
	train := tevot.RandomWorkload(tevot.IntAdd32, 600, 3)
	if _, err := tevot.CalibrateBaseClock(fu, corner, train); err != nil {
		t.Fatal(err)
	}
	trace, err := tevot.CharacterizeWithSpeedups(fu, corner, train, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	db, err := tevot.NewDelayBased(tevot.IntAdd32, []*tevot.Trace{trace})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := tevot.NewTERBased(tevot.IntAdd32, []*tevot.Trace{trace}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []tevot.ErrorPredictor{db, tb} {
		_, acc, err := tevot.EvaluateAll(p, []*tevot.Trace{trace})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if acc < 0 || acc > 1 {
			t.Fatalf("%s: accuracy %v", p.Name(), acc)
		}
	}
}

// TestPublicAPIPersistence round-trips a trained model through the
// facade's Save/LoadModel.
func TestPublicAPIPersistence(t *testing.T) {
	fu, err := tevot.NewFunctionalUnit(tevot.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corner := tevot.Corner{V: 0.9, T: 25}
	s := tevot.RandomWorkload(tevot.IntAdd32, 400, 5)
	trace, err := tevot.Characterize(fu, corner, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := tevot.Train(tevot.IntAdd32, []*tevot.Trace{trace}, tevot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := tevot.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cur, prev := s.Pairs[1], s.Pairs[0]
	if loaded.PredictDelay(corner, cur, prev) != model.PredictDelay(corner, cur, prev) {
		t.Fatal("loaded model predicts differently")
	}
}

func TestTableIGridFacade(t *testing.T) {
	g := tevot.TableIGrid()
	if got := len(g.Corners()); got != 100 {
		t.Fatalf("grid has %d corners, want 100", got)
	}
	if len(tevot.AllFUs) != 4 {
		t.Fatalf("AllFUs has %d entries", len(tevot.AllFUs))
	}
}
