package checker

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"mtc/internal/history"
)

// TestRegistryVerdictsGolden pins what every registered engine answers
// at every level it lists on every fixture of the anomaly catalogue:
// the whole Report minus the wall-clock timings and the engine name (a
// row is keyed by it), or the error an engine that cannot process the
// fixture returns. The golden file predates the engine-seam refactor, so
// a diff here is a verdict, counterexample or statistic that moved.
func TestRegistryVerdictsGolden(t *testing.T) {
	rows := map[string]any{}
	for _, f := range history.Fixtures() {
		for _, c := range Default.All() {
			for _, lvl := range c.Levels() {
				key := fmt.Sprintf("%s/%s@%s", f.Name, c.Name(), lvl)
				rep, err := Run(context.Background(), c.Name(), f.H, Options{Level: lvl})
				if err != nil {
					rows[key] = map[string]string{"error": err.Error()}
					continue
				}
				raw, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				var row map[string]any
				if err := json.Unmarshal(raw, &row); err != nil {
					t.Fatal(err)
				}
				delete(row, "timings")
				delete(row, "checker")
				rows[key] = row
			}
		}
	}
	goldenCompare(t, "reports.golden", rows)
}
