package perfscore

import (
	"math/rand"
	"testing"

	"flare/internal/machine"
	"flare/internal/perfmodel"
	"flare/internal/workload"
)

// BenchmarkEvaluateAssignments measures one replayed scenario at the
// replayer's default settings (noise 0.01, 3 samples): the unit of work
// behind every replay.scenario span.
func BenchmarkEvaluateAssignments(b *testing.B) {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	cat := workload.DefaultCatalog()
	inh, err := NewInherent(cfg, cat)
	if err != nil {
		b.Fatal(err)
	}
	var jobs []perfmodel.Assignment
	for _, name := range []string{workload.WebSearch, workload.DataCaching,
		workload.GraphAnalytics, workload.Mcf, workload.Libquantum} {
		p, err := cat.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, perfmodel.Assignment{Profile: p, Instances: 2})
	}
	feat := machine.CacheSizing(12)
	opts := Options{NoiseStd: 0.01, Samples: 3, Rand: rand.New(rand.NewSource(1))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateAssignments(cfg, feat, jobs, inh, opts); err != nil {
			b.Fatal(err)
		}
	}
}
