package experiments

import (
	"maps"
	"testing"
)

// TestE15IndependentOfEarlierExperiments: E15 reports each discovery's
// cost as Discover returned it. E05, E06 and E07 probe further through
// the cached discoveries' engines, so on one suite E15 must read the same
// before and after them.
func TestE15IndependentOfEarlierExperiments(t *testing.T) {
	s := NewSuite()
	before, err := s.Run("E15")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E05", "E06", "E07"} {
		if _, err := s.Run(id); err != nil {
			t.Fatal(err)
		}
	}
	after, err := s.Run("E15")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(before.Metrics, after.Metrics) || before.Report != after.Report {
		t.Errorf("E15 moved after E05-E07:\nbefore:\n%s\nafter:\n%s", before.Report, after.Report)
	}
}
