package perfmodel

import (
	"errors"
	"fmt"

	"flare/internal/machine"
)

// Evaluator amortises repeated model evaluations on one machine
// configuration. The configuration is validated once at construction, the
// fixed-point state is reused across colocations, and the relax/result
// phases are exposed separately so a caller sampling the same colocation
// many times (the profiler's noisy periodic measurements) can run the
// deterministic relaxation once and materialise many noisy results from
// it. An Evaluator is not safe for concurrent use; create one per worker.
type Evaluator struct {
	cfg     machine.Config
	st      state
	loaded  bool // Begin succeeded since construction
	relaxed bool // Relax succeeded since the last Begin
}

// NewEvaluator validates cfg and returns an evaluator bound to it.
func NewEvaluator(cfg machine.Config) (*Evaluator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("perfmodel: invalid config: %w", err)
	}
	return &Evaluator{cfg: cfg}, nil
}

// Begin validates and loads a colocation: per-job calibration and the
// activity-independent resource shares. jobs is retained (not copied)
// until the next Begin; the caller must not mutate it in between.
func (e *Evaluator) Begin(jobs []Assignment) error {
	if err := validateJobs(jobs); err != nil {
		return err
	}
	e.st.load(e.cfg, jobs)
	e.loaded = true
	e.relaxed = false
	return nil
}

// Relax runs the fixed-point relaxation for the loaded colocation under
// the given per-job activity factors (nil means nominal load, all 1). It
// may be called repeatedly with different factors; each call fully
// re-derives the converged state.
func (e *Evaluator) Relax(activity []float64) error {
	if !e.loaded {
		return errors.New("perfmodel: Relax called before Begin")
	}
	if err := validateActivity(e.st.jobs, activity); err != nil {
		return err
	}
	e.st.applyActivity(activity)
	e.st.relax()
	e.relaxed = true
	return nil
}

// ResultInto materialises the relaxed state into res, reusing res.Jobs.
// Only opts.NoiseStd and opts.Rand are consulted: activity factors belong
// to Relax. Each call draws a fresh noise realisation from opts.Rand, so
// repeated calls model repeated measurements of one steady state.
func (e *Evaluator) ResultInto(res *Result, opts Options) error {
	if !e.relaxed {
		return errors.New("perfmodel: ResultInto called before Relax")
	}
	if opts.NoiseStd > 0 && opts.Rand == nil {
		return ErrNoiseWithoutRand
	}
	e.st.resultInto(res, opts)
	return nil
}

// validateJobs checks a colocation the way Evaluate does.
func validateJobs(jobs []Assignment) error {
	if len(jobs) == 0 {
		return errors.New("perfmodel: no jobs to evaluate")
	}
	for _, a := range jobs {
		if a.Instances <= 0 {
			return fmt.Errorf("perfmodel: job %s has non-positive instance count %d", a.Profile.Name, a.Instances)
		}
		if err := a.Profile.Validate(); err != nil {
			return fmt.Errorf("perfmodel: %w", err)
		}
	}
	return nil
}

// validateActivity checks optional activity factors against the job list.
func validateActivity(jobs []Assignment, activity []float64) error {
	if activity == nil {
		return nil
	}
	if len(activity) != len(jobs) {
		return fmt.Errorf("perfmodel: %d activity factors for %d jobs", len(activity), len(jobs))
	}
	for i, f := range activity {
		if f <= 0 {
			return fmt.Errorf("perfmodel: non-positive activity factor %v for job %s", f, jobs[i].Profile.Name)
		}
	}
	return nil
}
