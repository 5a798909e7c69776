package perfscore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flare/internal/machine"
	"flare/internal/perfmodel"
	"flare/internal/workload"
)

// referenceEvaluateAssignments is the original EvaluateAssignments loop:
// two full perfmodel.Evaluate calls (validate, fresh state, relaxation)
// per sample. The single-relaxation implementation must reproduce it bit
// for bit, errors included.
func referenceEvaluateAssignments(base machine.Config, feat machine.Feature,
	assignments []perfmodel.Assignment, inh *Inherent, opts Options) (Impact, error) {
	featCfg := feat.Apply(base)

	samples := opts.Samples
	if opts.NoiseStd <= 0 || samples < 1 {
		samples = 1
	}

	imp := Impact{JobReductionPct: make(map[string]float64)}
	jobBase := make(map[string]float64)
	jobFeat := make(map[string]float64)

	for s := 0; s < samples; s++ {
		mo := perfmodel.Options{NoiseStd: opts.NoiseStd, Rand: opts.Rand}
		resBase, err := perfmodel.Evaluate(base, assignments, mo)
		if err != nil {
			return Impact{}, fmt.Errorf("perfscore: baseline: %w", err)
		}
		resFeat, err := perfmodel.Evaluate(featCfg, assignments, mo)
		if err != nil {
			return Impact{}, fmt.Errorf("perfscore: feature: %w", err)
		}
		b, err := referenceHPScoreWith(inh, resBase, opts.Metric)
		if err != nil {
			return Impact{}, err
		}
		f, err := referenceHPScoreWith(inh, resFeat, opts.Metric)
		if err != nil {
			return Impact{}, err
		}
		imp.Baseline += b
		imp.Feature += f

		for _, j := range resBase.Jobs {
			if j.Class != workload.ClassHP {
				continue
			}
			sb, err := inh.JobScore(resBase, j.Job)
			if err != nil {
				return Impact{}, err
			}
			sf, err := inh.JobScore(resFeat, j.Job)
			if err != nil {
				return Impact{}, err
			}
			jobBase[j.Job] += sb
			jobFeat[j.Job] += sf
		}
	}

	imp.Baseline /= float64(samples)
	imp.Feature /= float64(samples)
	if imp.Baseline > 0 {
		imp.ReductionPct = 100 * (imp.Baseline - imp.Feature) / imp.Baseline
	}
	for job, b := range jobBase {
		if b > 0 {
			imp.JobReductionPct[job] = 100 * (b - jobFeat[job]) / b
		}
	}
	return imp, nil
}

// referenceHPScoreWith is the original HPScoreWith: expand every HP
// instance into a slice, then aggregate it.
func referenceHPScoreWith(inh *Inherent, res perfmodel.Result, metric Metric) (float64, error) {
	var normalised []float64
	for _, j := range res.Jobs {
		if j.Class != workload.ClassHP {
			continue
		}
		base, err := inh.MIPS(j.Job)
		if err != nil {
			return 0, err
		}
		perf := j.MIPS / base
		for k := 0; k < j.Instances; k++ {
			normalised = append(normalised, perf)
		}
	}
	if len(normalised) == 0 {
		return 0, nil
	}
	switch metric {
	case MetricHarmonicMean:
		var invSum float64
		for _, p := range normalised {
			if p <= 0 {
				return 0, nil
			}
			invSum += 1 / p
		}
		return float64(len(normalised)) / invSum, nil
	case MetricWorstCase:
		worst := normalised[0]
		for _, p := range normalised[1:] {
			if p < worst {
				worst = p
			}
		}
		return worst, nil
	default:
		var sum float64
		for _, p := range normalised {
			sum += p
		}
		return sum, nil
	}
}

// equivalenceColocations are the assignment lists the equivalence test
// replays: mixed HP/LP, a job listed twice, LP only, and an
// oversubscribed machine.
func equivalenceColocations(t *testing.T, cat *workload.Catalog) map[string][]perfmodel.Assignment {
	t.Helper()
	prof := func(name string) workload.Profile {
		p, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return map[string][]perfmodel.Assignment{
		"mixed": {
			{Profile: prof(workload.GraphAnalytics), Instances: 3},
			{Profile: prof(workload.WebSearch), Instances: 2},
			{Profile: prof(workload.Mcf), Instances: 2},
		},
		"job-twice": {
			{Profile: prof(workload.DataCaching), Instances: 2},
			{Profile: prof(workload.Libquantum), Instances: 3},
			{Profile: prof(workload.DataCaching), Instances: 1},
			{Profile: prof(workload.InMemoryAnalytics), Instances: 2},
		},
		"lp-only": {
			{Profile: prof(workload.Mcf), Instances: 4},
		},
		"oversubscribed": {
			{Profile: prof(workload.DataServing), Instances: 9},
			{Profile: prof(workload.WebSearch), Instances: 9},
			{Profile: prof(workload.Libquantum), Instances: 9},
		},
	}
}

// sameImpact reports whether two impacts are bit-identical.
func sameImpact(a, b Impact) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.ScenarioID != b.ScenarioID || !same(a.Baseline, b.Baseline) ||
		!same(a.Feature, b.Feature) || !same(a.ReductionPct, b.ReductionPct) ||
		len(a.JobReductionPct) != len(b.JobReductionPct) {
		return false
	}
	for job, x := range a.JobReductionPct {
		y, ok := b.JobReductionPct[job]
		if !ok || !same(x, y) {
			return false
		}
	}
	return true
}

func TestEvaluateAssignmentsMatchesReference(t *testing.T) {
	cfg, cat, inh := fixture(t)
	feats := append([]machine.Feature{machine.Baseline()}, machine.PaperFeatures()...)
	for name, jobs := range equivalenceColocations(t, cat) {
		for _, feat := range feats {
			for _, noise := range []float64{0, 0.01, 0.05} {
				for _, samples := range []int{1, 3, 7} {
					for _, metric := range []Metric{0, MetricSumNormalized, MetricHarmonicMean, MetricWorstCase} {
						label := fmt.Sprintf("%s/%s/noise=%v/samples=%d/%s", name, feat.Name, noise, samples, metric)
						gotRng := rand.New(rand.NewSource(11))
						wantRng := rand.New(rand.NewSource(11))
						opts := Options{NoiseStd: noise, Samples: samples, Metric: metric}
						opts.Rand = gotRng
						got, gotErr := EvaluateAssignments(cfg, feat, jobs, inh, opts)
						opts.Rand = wantRng
						want, wantErr := referenceEvaluateAssignments(cfg, feat, jobs, inh, opts)
						if gotErr != nil || wantErr != nil {
							t.Fatalf("%s: errors %v, reference %v", label, gotErr, wantErr)
						}
						if !sameImpact(got, want) {
							t.Errorf("%s: impact %+v, reference %+v", label, got, want)
						}
						// Both must leave the stream at the same position.
						if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
							t.Errorf("%s: RNG position differs after the call", label)
						}
					}
				}
			}
		}
	}
}

func TestHPScoreWithMatchesReference(t *testing.T) {
	cfg, cat, inh := fixture(t)
	for name, jobs := range equivalenceColocations(t, cat) {
		for _, feat := range machine.PaperFeatures() {
			res, err := perfmodel.Evaluate(feat.Apply(cfg), jobs, perfmodel.Options{
				NoiseStd: 0.05, Rand: rand.New(rand.NewSource(3)),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, metric := range []Metric{0, MetricSumNormalized, MetricHarmonicMean, MetricWorstCase} {
				got, err := inh.HPScoreWith(res, metric)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := referenceHPScoreWith(inh, res, metric)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s/%s/%s: %v, reference %v", name, feat.Name, metric, got, want)
				}
			}
		}
	}
}

func TestEvaluateAssignmentsErrorPrecedence(t *testing.T) {
	cfg, cat, inh := fixture(t)
	jobs := equivalenceColocations(t, cat)["mixed"]
	badBase := cfg
	badBase.LLCMB = 0
	badFeat := machine.Feature{Name: "bad", Apply: func(c machine.Config) machine.Config {
		c.LLCMB = -1
		return c
	}}
	// An HP job the inherent table does not know.
	stranger := jobs[0].Profile
	stranger.Name = "stranger"
	unknownHP := append([]perfmodel.Assignment{{Profile: stranger, Instances: 1}}, jobs...)
	noisy := Options{NoiseStd: 0.01, Samples: 3}

	cases := []struct {
		name  string
		base  machine.Config
		feat  machine.Feature
		jobs  []perfmodel.Assignment
		opts  Options
		isErr error // optional sentinel the error must wrap
	}{
		{name: "invalid base", base: badBase, feat: machine.SMTOff(), jobs: jobs},
		{name: "invalid base beats invalid feature", base: badBase, feat: badFeat, jobs: jobs},
		{name: "invalid base beats nil Rand", base: badBase, feat: badFeat, jobs: jobs, opts: noisy},
		{name: "invalid feature", base: cfg, feat: badFeat, jobs: jobs},
		{name: "nil Rand", base: cfg, feat: machine.SMTOff(), jobs: jobs, opts: noisy,
			isErr: perfmodel.ErrNoiseWithoutRand},
		{name: "nil Rand beats invalid feature", base: cfg, feat: badFeat, jobs: jobs, opts: noisy,
			isErr: perfmodel.ErrNoiseWithoutRand},
		{name: "empty assignments", base: cfg, feat: machine.SMTOff()},
		{name: "empty assignments beat nil Rand", base: cfg, feat: badFeat, opts: noisy},
		{name: "unknown HP job", base: cfg, feat: machine.SMTOff(), jobs: unknownHP},
		{name: "invalid feature beats unknown HP job", base: cfg, feat: badFeat, jobs: unknownHP},
	}
	for _, tc := range cases {
		_, got := EvaluateAssignments(tc.base, tc.feat, tc.jobs, inh, tc.opts)
		_, want := referenceEvaluateAssignments(tc.base, tc.feat, tc.jobs, inh, tc.opts)
		if got == nil || want == nil {
			t.Errorf("%s: error %v, reference %v; want both non-nil", tc.name, got, want)
			continue
		}
		if got.Error() != want.Error() {
			t.Errorf("%s: error %q, reference %q", tc.name, got, want)
		}
		if tc.isErr != nil && !errors.Is(got, tc.isErr) {
			t.Errorf("%s: error %v does not wrap %v", tc.name, got, tc.isErr)
		}
	}
}
