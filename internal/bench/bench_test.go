package bench

import (
	"strings"
	"testing"
	"time"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d experiments, want 15 (e2..e16)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Source == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		got, ok := Find(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("Find(%s) failed", e.ID)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find accepted unknown id")
	}
}

// TestE10Runs executes the cheapest experiment end to end and checks
// it produces a plausible table.
func TestE10Runs(t *testing.T) {
	var sb strings.Builder
	if err := E10Diff(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"diff_bytes", "4096", "vs_full_page"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E10 output missing %q:\n%s", want, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if ms(1500*time.Microsecond) != 1.5 {
		t.Fatalf("ms = %v", ms(1500*time.Microsecond))
	}
	if perNode(10, 4) != 2.5 {
		t.Fatalf("perNode = %v", perNode(10, 4))
	}
}
