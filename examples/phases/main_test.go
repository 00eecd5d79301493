package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestOutput runs the example and checks the line that carries its
// point: phased jobs meet every deadline, as uniform ones do.
func TestOutput(t *testing.T) {
	const want = "deadline hit rate               100%           100%"
	if out := runMain(t); !slices.Contains(strings.Split(out, "\n"), want) {
		t.Errorf("no line %q in the output:\n%s", want, out)
	}
}

// runMain runs main with its standard output written to a file, and
// returns what it wrote.
func runMain(t *testing.T) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
