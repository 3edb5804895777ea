package core

import (
	"fmt"
	"time"

	"tevot/internal/features"
	"tevot/internal/ml"
)

// MethodResult is one row of the paper's Table II: a learning method's
// timing-error classification accuracy and its training/testing time.
type MethodResult struct {
	Method    string
	Accuracy  float64
	TrainTime time.Duration
	TestTime  time.Duration
}

// CompareMethods reproduces Table II: it trains LR, k-NN, SVM, and a
// random forest on the same characterization data and scores their
// timing-error classification at clock index k of each trace.
//
// The regression-capable methods (LR, k-NN, RF) are trained on the
// dynamic delay and classify by comparing the predicted delay with the
// clock period — TEVoT's own formulation. The SVM, a pure classifier, is
// trained directly on the error labels. Distance/margin methods (k-NN,
// SVM) see standardized features.
func CompareMethods(train, test []*Trace, k int, seed int64) ([]MethodResult, error) {
	Xtr, ytr, etr, err := flatten(train, k)
	if err != nil {
		return nil, err
	}
	Xte, _, ete, err := flatten(test, k)
	if err != nil {
		return nil, err
	}
	testClocks, err := rowClocks(test, k)
	if err != nil {
		return nil, err
	}

	scaler, err := ml.FitScaler(Xtr)
	if err != nil {
		return nil, err
	}
	XtrS := scaler.Transform(Xtr)
	XteS := scaler.Transform(Xte)

	var results []MethodResult

	// LR: ridge regression on delay, thresholded at the clock.
	{
		m := ml.NewRidge(1e-6)
		t0 := time.Now()
		if err := m.Fit(Xtr, ytr); err != nil {
			return nil, err
		}
		trainT := time.Since(t0)
		t0 = time.Now()
		pred := make([]bool, len(Xte))
		for i := range Xte {
			pred[i] = m.Predict(Xte[i]) > testClocks[i]
		}
		testT := time.Since(t0)
		acc, err := ml.AccuracyBool(pred, ete)
		if err != nil {
			return nil, err
		}
		results = append(results, MethodResult{"LR", acc, trainT, testT})
	}

	// k-NN: delay regression by local interpolation, thresholded.
	{
		m := ml.NewKNN(5, ml.Regression)
		t0 := time.Now()
		if err := m.Fit(XtrS, ytr); err != nil {
			return nil, err
		}
		trainT := time.Since(t0)
		t0 = time.Now()
		delays := m.PredictBatch(XteS)
		pred := make([]bool, len(delays))
		for i, d := range delays {
			pred[i] = d > testClocks[i]
		}
		testT := time.Since(t0)
		acc, err := ml.AccuracyBool(pred, ete)
		if err != nil {
			return nil, err
		}
		results = append(results, MethodResult{"KNN", acc, trainT, testT})
	}

	// SVM: RBF-kernel classification of the error label via SMO — what
	// scikit-learn's SVC (the paper's tool) runs by default; its O(n²)
	// training and O(support-vectors) prediction produce Table II's
	// dominant time column. (ml.SVM is the cheaper linear alternative.)
	{
		m := ml.NewKernelSVM(1, 0, seed)
		lab := make([]float64, len(etr))
		for i, e := range etr {
			if e {
				lab[i] = 1
			}
		}
		t0 := time.Now()
		if err := m.Fit(XtrS, lab); err != nil {
			return nil, err
		}
		trainT := time.Since(t0)
		t0 = time.Now()
		pred := make([]bool, len(XteS))
		for i := range XteS {
			pred[i] = m.Predict(XteS[i]) == 1
		}
		testT := time.Since(t0)
		acc, err := ml.AccuracyBool(pred, ete)
		if err != nil {
			return nil, err
		}
		results = append(results, MethodResult{"SVM", acc, trainT, testT})
	}

	// RF: the paper's choice — delay regression forest, thresholded.
	{
		cfg := ml.DefaultForestConfig(ml.Regression)
		cfg.Seed = seed
		m := ml.NewRandomForest(cfg)
		t0 := time.Now()
		if err := m.Fit(Xtr, ytr); err != nil {
			return nil, err
		}
		trainT := time.Since(t0)
		t0 = time.Now()
		delays := m.PredictBatch(Xte)
		pred := make([]bool, len(delays))
		for i, d := range delays {
			pred[i] = d > testClocks[i]
		}
		testT := time.Since(t0)
		acc, err := ml.AccuracyBool(pred, ete)
		if err != nil {
			return nil, err
		}
		results = append(results, MethodResult{"RFC", acc, trainT, testT})
	}
	return results, nil
}

// flatten turns traces into (features, delay labels, error labels at
// clock k), with all feature rows carved out of one contiguous backing
// array.
func flatten(traces []*Trace, k int) (X [][]float64, y []float64, e []bool, err error) {
	total := 0
	for _, tr := range traces {
		if k >= len(tr.ClockPeriods) {
			return nil, nil, nil, fmt.Errorf("core: trace lacks clock index %d", k)
		}
		total += tr.Cycles()
	}
	if total == 0 {
		return nil, nil, nil, fmt.Errorf("core: no samples")
	}
	X = featureRows(total, features.Dim)
	y = make([]float64, 0, total)
	e = make([]bool, 0, total)
	row := 0
	for _, tr := range traces {
		n := tr.Cycles()
		fillRows(X[row:row+n], true, tr.Corner, tr.Stream.Pairs)
		row += n
		y = append(y, tr.Delays...)
		e = append(e, tr.Errors[k][:n]...)
	}
	return X, y, e, nil
}

// rowClocks expands each trace's clock period at index k to one entry
// per cycle.
func rowClocks(traces []*Trace, k int) ([]float64, error) {
	var out []float64
	for _, tr := range traces {
		if k >= len(tr.ClockPeriods) {
			return nil, fmt.Errorf("core: trace lacks clock index %d", k)
		}
		for i := 0; i < tr.Cycles(); i++ {
			out = append(out, tr.ClockPeriods[k])
		}
	}
	return out, nil
}
