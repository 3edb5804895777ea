package core

import (
	"context"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/workload"
)

func TestCompareMethods(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 0.85, T: 50}
	train := workload.RandomInt(1201, 31)
	test := workload.RandomInt(601, 32)
	if _, err := u.CalibrateBaseClockOptsContext(context.Background(), c, train, CharacterizeOptions{}); err != nil {
		t.Fatal(err)
	}
	clocks, err := u.ClockPeriods(c, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	trTrain, err := CharacterizeOptsContext(context.Background(), u, c, train, clocks, CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trTest, err := CharacterizeOptsContext(context.Background(), u, c, test, clocks, CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := CompareMethods([]*Trace{trTrain}, []*Trace{trTest}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d methods, want 4", len(results))
	}
	byName := map[string]MethodResult{}
	for _, r := range results {
		byName[r.Method] = r
		t.Logf("%-4s acc %.4f train %v test %v", r.Method, r.Accuracy, r.TrainTime, r.TestTime)
		if r.Accuracy < 0.5 {
			t.Errorf("%s accuracy %.4f below coin flip", r.Method, r.Accuracy)
		}
	}
	for _, name := range []string{"LR", "KNN", "SVM", "RFC"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing method %s", name)
		}
	}
	// The paper's Table II ordering: RFC is the most accurate.
	rfc := byName["RFC"].Accuracy
	for _, name := range []string{"LR", "KNN", "SVM"} {
		if byName[name].Accuracy > rfc+0.01 {
			t.Errorf("%s (%.4f) should not beat RFC (%.4f)", name, byName[name].Accuracy, rfc)
		}
	}
}

func TestQualityStudySmall(t *testing.T) {
	units := map[circuits.FU]*FUnit{}
	for _, fu := range inject.SobelApp.FUs() {
		u, err := NewFUnit(fu)
		if err != nil {
			t.Fatal(err)
		}
		units[fu] = u
	}
	corner := cells.Corner{V: 0.81, T: 25}
	// Calibrate each FU's base clock on random data so speedups create
	// real error tails.
	predictors := map[circuits.FU]ErrorPredictor{}
	for fu, u := range units {
		train := workload.Random(fu.IsFloat(), 601, int64(fu))
		if _, err := u.CalibrateBaseClockOptsContext(context.Background(), corner, train, CharacterizeOptions{}); err != nil {
			t.Fatal(err)
		}
		clocks, err := u.ClockPeriods(corner, []float64{0.10})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := CharacterizeOptsContext(context.Background(), u, corner, train, clocks, CharacterizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Train(fu, []*Trace{tr}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		predictors[fu] = m
		db, err := NewDelayBased(fu, []*Trace{tr})
		if err != nil {
			t.Fatal(err)
		}
		_ = db
	}
	tevotQ := QualityFromPredictors("TEVoT", predictors)

	images := imaging.SyntheticSet(2, 16, 16)
	res, err := QualityStudy(inject.SobelApp, units, []QualityModel{tevotQ},
		images, []cells.Corner{corner}, []float64{0.10},
		QualityOptions{Seed: 1, StreamCap: 800})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2 (1 corner x 1 speedup x 2 images)", len(res.Points))
	}
	acc, ok := res.EstimationAccuracy["TEVoT"]
	if !ok {
		t.Fatal("no TEVoT estimation accuracy")
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("estimation accuracy %v outside [0,1]", acc)
	}
	for _, pt := range res.Points {
		if pt.TruePSNR < 0 {
			t.Errorf("negative ground-truth PSNR %v", pt.TruePSNR)
		}
		if _, ok := pt.PSNR["TEVoT"]; !ok {
			t.Error("point missing TEVoT PSNR")
		}
	}
	_ = res.MeanPSNRGap("TEVoT") // smoke: no panic on Inf PSNRs
}

func TestQualityStudyValidation(t *testing.T) {
	if _, err := QualityStudy(inject.SobelApp, nil, nil, nil, nil, nil, QualityOptions{}); err == nil {
		t.Error("QualityStudy accepted no images")
	}
}

func TestQualityFromPredictorsMissingFU(t *testing.T) {
	q := QualityFromPredictors("X", map[circuits.FU]ErrorPredictor{})
	if _, err := q.TERFor(circuits.IntAdd32, cells.Corner{V: 1, T: 25},
		workload.RandomInt(10, 1), 100); err == nil {
		t.Error("TERFor succeeded without a predictor")
	}
}
