package replayer

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flare/internal/machine"
)

var update = flag.Bool("update", false, "rewrite the replay golden files under testdata/")

// goldenCase is one fixed-seed estimate in the replay golden.
type goldenCase struct {
	Source   string `json:"source"` // "live" or "plan"
	Feature  string `json:"feature"`
	Job      string `json:"job,omitempty"` // empty for all-job estimates
	Estimate any    `json:"estimate"`
}

// replayGolden computes every estimate the golden pins: EstimateAllJob
// and EstimatePerJob (each HP job) for every paper feature, plus
// EstimateFromPlan for the first feature, all under DefaultOptions.
func replayGolden(t *testing.T) []byte {
	t.Helper()
	f := testFixture(t)
	opts := DefaultOptions()
	var cases []goldenCase
	for _, feat := range machine.PaperFeatures() {
		all, err := EstimateAllJob(f.an, f.cat, f.inh, f.cfg, feat, opts)
		if err != nil {
			t.Fatalf("%s all-job: %v", feat.Name, err)
		}
		cases = append(cases, goldenCase{Source: "live", Feature: feat.Name, Estimate: all})
		for _, p := range f.cat.HPJobs() {
			est, err := EstimatePerJob(f.an, f.cat, f.inh, f.cfg, feat, p.Name, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", feat.Name, p.Name, err)
			}
			cases = append(cases, goldenCase{Source: "live", Feature: feat.Name, Job: p.Name, Estimate: est})
		}
	}
	plan, _ := testPlan(t)
	feat := machine.PaperFeatures()[0]
	est, err := EstimateFromPlan(plan, f.cat, f.inh, f.cfg, feat, opts)
	if err != nil {
		t.Fatalf("%s plan: %v", feat.Name, err)
	}
	cases = append(cases, goldenCase{Source: "plan", Feature: feat.Name, Estimate: est})

	out, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestReplayGolden pins the fixed-seed replay estimates byte for byte
// against a committed golden, so a change that shifts every estimate
// equally (which the relative tick/batch and plan/live checks miss) still
// fails. Regenerate with `go test ./internal/replayer -run
// TestReplayGolden -update` only for an intended numeric change.
func TestReplayGolden(t *testing.T) {
	got := replayGolden(t)
	path := filepath.Join("testdata", "estimates.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("replay estimates differ from %s:\n%s", path, firstDiff(want, got))
	}
}

// firstDiff reports the first differing line of two golden texts.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, w, g)
		}
	}
	return "(no line differs)"
}
