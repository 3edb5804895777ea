package core

import (
	"fmt"
	"sort"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/features"
	"tevot/internal/ml"
	"tevot/internal/obs"
	"tevot/internal/workload"
)

// Config controls TEVoT training.
type Config struct {
	// Forest configures the random-forest regressor. The zero value is
	// replaced by the paper's default (10 trees, all features per split).
	Forest ml.ForestConfig
	// History includes the previous input vector x[t-1] in the features.
	// Disabling it yields the TEVoT-NH ablation baseline.
	History bool
}

// DefaultConfig returns the paper's configuration: random forest with 10
// trees, full feature set including computation history.
func DefaultConfig() Config {
	return Config{Forest: ml.DefaultForestConfig(ml.Regression), History: true}
}

// Model is a trained TEVoT predictor for one functional unit. It
// predicts the dynamic delay D[t] from {V, T, x[t], x[t-1]} and derives
// timing errors by comparing the prediction with any clock period — the
// paper's Eq. 2 formulation, reusable across clock speeds without
// retraining.
type Model struct {
	FU      circuits.FU
	History bool

	forest *ml.RandomForest
	dim    int
}

// Train fits a TEVoT model from one or more characterization traces
// (typically spanning many operating corners, so the model learns the
// condition dependence along with the workload dependence).
func Train(fu circuits.FU, traces []*Trace, cfg Config) (*Model, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("core: no training traces")
	}
	if cfg.Forest.Trees == 0 {
		cfg.Forest = ml.DefaultForestConfig(ml.Regression)
	}
	cfg.Forest.Tree.Mode = ml.Regression
	dim := features.Dim
	if !cfg.History {
		dim = features.DimNH
	}
	total := 0
	for _, tr := range traces {
		if tr.FU != fu {
			return nil, fmt.Errorf("core: trace for %v mixed into %v training", tr.FU, fu)
		}
		total += tr.Cycles()
	}
	// One contiguous backing array for all rows: cheaper to fill and much
	// friendlier to the forest's split scans than n separate row allocs.
	endFeat := obs.Time("features.extract")
	X := featureRows(total, dim)
	y := make([]float64, 0, total)
	row := 0
	for _, tr := range traces {
		n := tr.Cycles()
		fillRows(X[row:row+n], cfg.History, tr.Corner, tr.Stream.Pairs)
		row += n
		y = append(y, tr.Delays...)
	}
	endFeat()
	forest := ml.NewRandomForest(cfg.Forest)
	endFit := obs.Time("forest.fit")
	err := forest.Fit(X, y)
	endFit()
	if err != nil {
		return nil, err
	}
	return &Model{FU: fu, History: cfg.History, forest: forest, dim: dim}, nil
}

// PredictDelay estimates the dynamic delay (ps) of applying cur after
// prev at the given corner. For history-free models prev is ignored.
func (m *Model) PredictDelay(corner cells.Corner, cur, prev workload.OperandPair) float64 {
	x := make([]float64, m.dim)
	fillRows([][]float64{x}, m.History, corner, []workload.OperandPair{prev, cur})
	return m.forest.Predict(x)
}

// Dim returns the model's feature-vector width (features.Dim with
// history, features.DimNH without). Callers that manage their own
// scratch buffers — the serving worker pool — size rows with it.
func (m *Model) Dim() int { return m.dim }

// FillFeatureRows fills one feature row per predicted cycle — cycle i
// applies pairs[i+1] after pairs[i] — at the given corner, without
// predicting. X must hold at least len(pairs)-1 rows of width Dim();
// row contents are overwritten and nothing is retained or allocated.
// Splitting the fill from the forest call lets a serving coalescer pack
// rows from requests at *different* corners into one contiguous batch
// and amortize a single PredictRowsInto over all of them.
func (m *Model) FillFeatureRows(X [][]float64, corner cells.Corner, pairs []workload.OperandPair) error {
	n := len(pairs) - 1
	if n < 1 {
		return fmt.Errorf("core: need at least 2 operand pairs, got %d", len(pairs))
	}
	if len(X) < n {
		return fmt.Errorf("core: scratch holds %d rows, need %d", len(X), n)
	}
	for i, x := range X[:n] {
		if len(x) != m.dim {
			return fmt.Errorf("core: scratch row %d has width %d, model wants %d", i, len(x), m.dim)
		}
	}
	fillRows(X[:n], m.History, corner, pairs)
	return nil
}

// PredictRowsInto runs the forest over pre-filled feature rows (see
// FillFeatureRows), writing len(X) delays into dst. It allocates
// nothing; large batches fan out across the forest's internal workers.
func (m *Model) PredictRowsInto(dst []float64, X [][]float64) error {
	if len(dst) < len(X) {
		return fmt.Errorf("core: dst holds %d delays, need %d", len(dst), len(X))
	}
	m.forest.PredictBatchInto(dst[:len(X)], X)
	return nil
}

// PredictDelays estimates the dynamic delay of every cycle of a stream.
func (m *Model) PredictDelays(corner cells.Corner, s *workload.Stream) ([]float64, error) {
	if s.Len() < 2 {
		return nil, fmt.Errorf("core: stream %q too short", s.Name)
	}
	endFeat := obs.Time("features.extract")
	X := featureRows(s.Len()-1, m.dim)
	fillRows(X, m.History, corner, s.Pairs)
	endFeat()
	endPred := obs.Time("forest.predict")
	out := m.forest.PredictBatch(X)
	endPred()
	return out, nil
}

// fillRows is the one place the paper's feature-row layout is chosen:
// row i describes cycle i, which applies pairs[i+1] after pairs[i], as
// {x[t], x[t-1], V, T} with history or {x[t], V, T} without. pairs must
// hold at least len(X)+1 entries and every row the layout's width.
func fillRows(X [][]float64, history bool, corner cells.Corner, pairs []workload.OperandPair) {
	if history {
		for i, x := range X {
			features.VectorInto(x, corner, pairs[i+1], pairs[i])
		}
		return
	}
	for i, x := range X {
		features.VectorNHInto(x, corner, pairs[i+1])
	}
}

// featureRows carves n rows of width dim out of one contiguous backing
// array (each row capped so an append cannot bleed into its neighbor).
func featureRows(n, dim int) [][]float64 {
	backing := make([]float64, n*dim)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// FeatureImportance reports which features drive the model's delay
// predictions: the forest's normalized impurity-decrease importance,
// paired with human-readable names ("x[t].a31", "V", ...). This is the
// interpretability that made the paper choose the random forest.
func (m *Model) FeatureImportance() (names []string, importance []float64) {
	if m.History {
		names = features.Names()
	} else {
		names = features.NamesNH()
	}
	importance = m.forest.Importance()
	if importance == nil {
		importance = make([]float64, len(names))
	}
	return names, importance
}

// TopFeatures returns the k most important features, descending.
func (m *Model) TopFeatures(k int) []string {
	names, imp := m.FeatureImportance()
	type fi struct {
		name string
		v    float64
	}
	all := make([]fi, len(names))
	for i := range names {
		all[i] = fi{names[i], imp[i]}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].name
	}
	return out
}

// TER derives the model's predicted timing-error rate for a stream at a
// corner and clock period — the quantity injected into applications in
// the quality study.
func (m *Model) TER(corner cells.Corner, s *workload.Stream, tclk float64) (float64, error) {
	errs, err := m.Errors(corner, s, tclk)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range errs {
		if e {
			n++
		}
	}
	return float64(n) / float64(len(errs)), nil
}
