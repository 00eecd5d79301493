package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmpqos/internal/fault"
)

// TestParseClockUnits: GHz, MHz and Hz suffixes, any case.
func TestParseClockUnits(t *testing.T) {
	for in, want := range map[string]float64{"2GHz": 2e9, "800mhz": 800e6, "1000 Hz": 1000, "3.2e9": 3.2e9} {
		if got, err := ParseClock(in); err != nil || got != want {
			t.Errorf("ParseClock(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseClock("fast"); err == nil {
		t.Error("ParseClock(fast) accepted")
	}
}

// TestParseFaultPlanFile: a value that is no rate names a plan file,
// parsed as fault.ParsePlan parses its text; a missing or malformed
// file is an error naming it.
func TestParseFaultPlanFile(t *testing.T) {
	dir := t.TempDir()
	const text = "core-fail at=100 for=50 core=1\n"
	good := filepath.Join(dir, "plan.txt")
	if err := os.WriteFile(good, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := fault.ParsePlan(text)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ParseFaultPlan(good, 1, 4, 16); err != nil || len(got.Events) != 1 || got.Events[0] != want.Events[0] {
		t.Errorf("ParseFaultPlan(file) = %+v, %v; want %+v", got, err, want)
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("meteor at=1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bad, filepath.Join(dir, "missing.txt")} {
		if _, err := ParseFaultPlan(path, 1, 4, 16); err == nil || !strings.Contains(err.Error(), filepath.Base(path)) {
			t.Errorf("ParseFaultPlan(%s) = %v, want an error naming the file", path, err)
		}
	}
}
