// Package perfscore implements the paper's performance metric (Sec 5.1):
//
//	Performance = Job MIPS / Job's Inherent MIPS
//
// where a job's inherent MIPS is measured alone on an empty machine. The
// normalisation stops inherently fast jobs from dominating aggregates.
// Scenario-level performance sums the normalised performance of every HP
// instance; LP jobs run on free quota and are excluded. A feature's
// impact on a scenario is the relative drop of this score between the
// baseline and feature configurations ("MIPS reduction %").
package perfscore

import (
	"errors"
	"fmt"
	"math/rand"

	"flare/internal/machine"
	"flare/internal/perfmodel"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// Inherent caches each job's inherent MIPS on a reference configuration.
type Inherent struct {
	cfg  machine.Config
	mips map[string]float64
}

// NewInherent measures the inherent MIPS of every catalog job alone on
// the given (typically stock baseline) configuration.
func NewInherent(cfg machine.Config, cat *workload.Catalog) (*Inherent, error) {
	if cat == nil || cat.Len() == 0 {
		return nil, errors.New("perfscore: empty catalog")
	}
	inh := &Inherent{cfg: cfg, mips: make(map[string]float64, cat.Len())}
	for _, p := range cat.Profiles() {
		m, err := perfmodel.SoloMIPS(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("perfscore: inherent MIPS of %s: %w", p.Name, err)
		}
		inh.mips[p.Name] = m
	}
	return inh, nil
}

// MIPS returns the inherent MIPS of the named job.
func (inh *Inherent) MIPS(job string) (float64, error) {
	m, ok := inh.mips[job]
	if !ok {
		return 0, fmt.Errorf("perfscore: no inherent MIPS for job %q", job)
	}
	return m, nil
}

// HPScore sums normalised performance over the HP instances of a modelled
// result: sum over HP jobs of instances * (MIPS / inherent MIPS).
func (inh *Inherent) HPScore(res perfmodel.Result) (float64, error) {
	return inh.HPScoreWith(res, MetricSumNormalized)
}

// HPScoreWith aggregates the HP instances' normalised performance under
// the chosen metric. A result without HP instances scores 0. Each instance
// is folded in separately, in result order: the floating-point result
// depends on that order, not only on the per-job scores and counts.
func (inh *Inherent) HPScoreWith(res perfmodel.Result, metric Metric) (float64, error) {
	var (
		n       int
		acc     float64 // sum, sum of inverses, or minimum, per metric
		stalled bool    // a non-positive instance zeroes the harmonic mean
	)
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
			switch metric {
			case MetricHarmonicMean:
				if perf <= 0 {
					stalled = true
				} else {
					acc += 1 / perf
				}
			case MetricWorstCase:
				if n == 0 || perf < acc {
					acc = perf
				}
			default: // MetricSumNormalized (including the zero value)
				acc += perf
			}
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	if metric == MetricHarmonicMean {
		if stalled {
			return 0, nil
		}
		return float64(n) / acc, nil
	}
	return acc, nil
}

// JobScore returns the per-instance normalised performance of one job in
// a modelled result, or an error if the job is absent.
func (inh *Inherent) JobScore(res perfmodel.Result, job string) (float64, error) {
	base, err := inh.MIPS(job)
	if err != nil {
		return 0, err
	}
	for _, j := range res.Jobs {
		if j.Job == job {
			return j.MIPS / base, nil
		}
	}
	return 0, fmt.Errorf("perfscore: job %q not in result", job)
}

// Metric selects the multiprogram performance metric aggregating the HP
// instances' normalised performance. The paper uses the throughput-style
// sum and notes that alternatives (Eyerman & Eeckhout's system-level
// metrics) drop in freely.
type Metric int

// Aggregation metrics.
const (
	// MetricSumNormalized sums normalised progress over HP instances
	// (system throughput, the paper's choice). The zero value maps here.
	MetricSumNormalized Metric = iota + 1
	// MetricHarmonicMean takes the harmonic mean of normalised progress,
	// balancing throughput against fairness.
	MetricHarmonicMean
	// MetricWorstCase takes the minimum normalised progress, a
	// tail-oriented view.
	MetricWorstCase
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricSumNormalized:
		return "sum-normalized"
	case MetricHarmonicMean:
		return "harmonic-mean"
	case MetricWorstCase:
		return "worst-case"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Options controls scenario evaluation.
type Options struct {
	// NoiseStd adds measurement/reconstruction noise per evaluation; zero
	// is deterministic.
	NoiseStd float64
	// Samples averages this many noisy evaluations (>= 1); ignored when
	// NoiseStd is zero.
	Samples int
	// Rand supplies randomness when NoiseStd > 0.
	Rand *rand.Rand
	// Metric selects the HP aggregation; zero means MetricSumNormalized.
	Metric Metric
}

// Impact is the measured effect of a feature on one scenario.
type Impact struct {
	ScenarioID int
	Baseline   float64 // HP score under the baseline config
	Feature    float64 // HP score under the feature config
	// ReductionPct is the relative HP-score drop in percent; positive
	// means the feature loses performance.
	ReductionPct float64
	// JobReductionPct maps each HP job in the scenario to its own
	// per-instance reduction.
	JobReductionPct map[string]float64
}

// EvaluateScenario measures a feature's impact on one colocation: the
// scenario is run (modelled) under both configurations and scored.
func EvaluateScenario(base machine.Config, feat machine.Feature, sc scenario.Scenario,
	cat *workload.Catalog, inh *Inherent, opts Options) (Impact, error) {
	assignments, err := assignments(sc, cat)
	if err != nil {
		return Impact{}, err
	}
	imp, err := EvaluateAssignments(base, feat, assignments, inh, opts)
	if err != nil {
		return Impact{}, err
	}
	imp.ScenarioID = sc.ID
	return imp, nil
}

// EvaluateAssignments is EvaluateScenario for an explicit assignment list
// (e.g. a hybrid of real jobs and synthetic interference generators).
//
// The model's relaxation is deterministic and never reads the RNG, so each
// configuration is relaxed once; every sample then materialises a noisy
// baseline result and a noisy feature result from the relaxed states, in
// that draw order.
func EvaluateAssignments(base machine.Config, feat machine.Feature,
	assignments []perfmodel.Assignment, inh *Inherent, opts Options) (Impact, error) {
	evBase, err := relaxedEvaluator(base, assignments)
	if err != nil {
		return Impact{}, fmt.Errorf("perfscore: baseline: %w", err)
	}
	if opts.NoiseStd > 0 && opts.Rand == nil {
		return Impact{}, fmt.Errorf("perfscore: baseline: %w", perfmodel.ErrNoiseWithoutRand)
	}
	evFeat, err := relaxedEvaluator(feat.Apply(base), assignments)
	if err != nil {
		return Impact{}, fmt.Errorf("perfscore: feature: %w", err)
	}
	jobs, err := inh.hpJobs(assignments)
	if err != nil {
		return Impact{}, err
	}

	samples := opts.Samples
	if opts.NoiseStd <= 0 || samples < 1 {
		samples = 1
	}
	mo := perfmodel.Options{NoiseStd: opts.NoiseStd, Rand: opts.Rand}
	imp := Impact{JobReductionPct: make(map[string]float64)}
	var resBase, resFeat perfmodel.Result
	for s := 0; s < samples; s++ {
		if err := evBase.ResultInto(&resBase, mo); err != nil {
			return Impact{}, fmt.Errorf("perfscore: baseline: %w", err)
		}
		if err := evFeat.ResultInto(&resFeat, mo); err != nil {
			return Impact{}, fmt.Errorf("perfscore: feature: %w", err)
		}
		b, err := inh.HPScoreWith(resBase, opts.Metric)
		if err != nil {
			return Impact{}, err
		}
		f, err := inh.HPScoreWith(resFeat, opts.Metric)
		if err != nil {
			return Impact{}, err
		}
		imp.Baseline += b
		imp.Feature += f

		for i := range jobs {
			j := &jobs[i]
			if j.first < 0 {
				continue
			}
			sum := &jobs[j.first]
			sum.base += resBase.Jobs[j.first].MIPS / j.inherent
			sum.feat += resFeat.Jobs[j.first].MIPS / j.inherent
		}
	}

	imp.Baseline /= float64(samples)
	imp.Feature /= float64(samples)
	if imp.Baseline > 0 {
		imp.ReductionPct = 100 * (imp.Baseline - imp.Feature) / imp.Baseline
	}
	for i, j := range jobs {
		if j.first < 0 {
			continue
		}
		if sum := jobs[j.first]; sum.base > 0 {
			imp.JobReductionPct[assignments[i].Profile.Name] = 100 * (sum.base - sum.feat) / sum.base
		}
	}
	return imp, nil
}

// relaxedEvaluator loads a colocation on cfg and runs the relaxation once.
func relaxedEvaluator(cfg machine.Config, assignments []perfmodel.Assignment) (*perfmodel.Evaluator, error) {
	ev, err := perfmodel.NewEvaluator(cfg)
	if err != nil {
		return nil, err
	}
	if err := ev.Begin(assignments); err != nil {
		return nil, err
	}
	if err := ev.Relax(nil); err != nil {
		return nil, err
	}
	return ev, nil
}

// hpJob is one assignment's per-job score accumulator in
// EvaluateAssignments.
type hpJob struct {
	// first is the first assignment of the same job, or -1 for an LP
	// job. A job listed twice is scored as its first entry, the way
	// JobScore reads a result, and sums into that entry's slot.
	first      int
	inherent   float64 // the job's inherent MIPS
	base, feat float64 // per-sample scores summed into the first slot
}

// hpJobs resolves the per-job score slots of an assignment list.
func (inh *Inherent) hpJobs(assignments []perfmodel.Assignment) ([]hpJob, error) {
	jobs := make([]hpJob, len(assignments))
	for i, a := range assignments {
		jobs[i].first = -1
		if a.Profile.Class != workload.ClassHP {
			continue
		}
		m, err := inh.MIPS(a.Profile.Name)
		if err != nil {
			return nil, err
		}
		jobs[i].inherent = m
		jobs[i].first = i
		for k := range assignments[:i] {
			if assignments[k].Profile.Name == a.Profile.Name {
				jobs[i].first = k
				break
			}
		}
	}
	return jobs, nil
}

func assignments(sc scenario.Scenario, cat *workload.Catalog) ([]perfmodel.Assignment, error) {
	out := make([]perfmodel.Assignment, 0, len(sc.Placements))
	for _, p := range sc.Placements {
		prof, err := cat.Lookup(p.Job)
		if err != nil {
			return nil, fmt.Errorf("perfscore: scenario %d: %w", sc.ID, err)
		}
		out = append(out, perfmodel.Assignment{Profile: prof, Instances: p.Instances})
	}
	return out, nil
}
