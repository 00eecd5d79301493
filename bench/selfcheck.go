package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// selfCheckRuns is how many runs make one of the two sets.
const selfCheckRuns = 3

// maxLiveDrift is how far the live grant population of the last third
// of a measured phase may sit from the first third's before the live
// state counts as not stationary.
const maxLiveDrift = 0.05

// ungated are the timings selfCheck prints beside the gated metrics, for
// the record: demoted from the end-to-end list because this host cannot
// hold them.
var ungated = []string{"op_p50_us", "op_p90_us", "ops_per_s"}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runChild runs one untraced run of this binary in its own process, the
// way the driver does, and reads its last two lines back.
func runChild(name string, seed int64, seconds float64) (result, diagnostics, error) {
	var res result
	var diag diagnostics
	exe, err := os.Executable()
	if err != nil {
		return res, diag, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return res, diag, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if len(lines) < 2 {
		return res, diag, fmt.Errorf("%s seed %d: no result line", name, seed)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &diag); err != nil {
		return res, diag, err
	}
	return res, diag, json.Unmarshal([]byte(lines[len(lines)-1]), &res)
}

// selfCheck is the repeatability guard: two sets of runs of this binary,
// every run its own process on its own seed. For every end-to-end metric
// it prints the two medians and how much worse the second is than the
// first, and fails when that exceeds the metric's bound; it also fails
// when a workload's live state is not stationary over the measured
// phase. The demoted timings are printed the same way and never fail.
func selfCheck(names []string, seed int64, seconds float64) error {
	var failures []string
	for _, name := range names {
		var sets [2]map[string][]float64
		var drift, thirds, sliceIQR []float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for k := 0; k < selfCheckRuns; k++ {
				res, diag, err := runChild(name, seed+int64(set*selfCheckRuns+k), seconds)
				if err != nil {
					return err
				}
				for metric, v := range res.Metrics {
					sets[set][metric] = append(sets[set][metric], v.Value)
				}
				for metric, v := range diag.Ungated {
					sets[set][metric] = append(sets[set][metric], v)
				}
				drift = append(drift, diag.LiveDrift)
				thirds = append(thirds, diag.ThirdsGap)
				sliceIQR = append(sliceIQR, diag.SliceIQR)
			}
		}
		metrics := make([]string, 0, len(endToEnd))
		for metric := range endToEnd {
			metrics = append(metrics, metric)
		}
		sort.Strings(metrics)
		for _, metric := range append(metrics, ungated...) {
			g, isGated := endToEnd[metric]
			a, b := median(sets[0][metric]), median(sets[1][metric])
			worse := (b - a) / a
			if metric == "ops_per_s" { // the one metric here that is better when higher
				worse = -worse
			}
			verdict := "ungated"
			if isGated {
				verdict = fmt.Sprintf("bound=%.2f ok", g.bound)
				if worse > g.bound {
					verdict = fmt.Sprintf("bound=%.2f FAIL", g.bound)
					failures = append(failures, fmt.Sprintf("%s %s: second set worse by %.3f, bound %.2f", name, metric, worse, g.bound))
				}
			}
			fmt.Printf("%-14s %-16s first=%-14.4f second=%-14.4f worse_by=%+.4f %s\n", name, metric, a, b, worse, verdict)
		}
		d := median(drift)
		verdict := "ok"
		if math.Abs(d) > maxLiveDrift {
			verdict = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: live grant population drifts by %+.3f between the first and last third", name, d))
		}
		fmt.Printf("%-14s slices=%d slice_iqr=%.4f thirds_gap=%+.4f live_drift=%+.4f limit=%.2f %s\n",
			name, slices, median(sliceIQR), median(thirds), d, maxLiveDrift, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
