package jobfile

import (
	"errors"
	"strings"
	"testing"

	"cmpqos/internal/qos"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

const sample = `
# a two-node cluster of paper-sized CMPs
node count=2 cores=4 ways=16 mem=4GB

job name=db    bench=bzip2 mode=strict preset=medium tw=500ms deadline=2.0
job name=batch bench=gobmk mode=elastic slack=5% ways=7 tw=300ms deadline=3.0
job name=scav  bench=milc mode=opportunistic ways=4 tw=200ms arrival=10ms
job name=raw   bench=hmmer cores=2 ways=8 mem=512MB tw=100ms deadline=900ms
`

func TestParseSample(t *testing.T) {
	spec, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if spec.NodeCount != 2 {
		t.Errorf("node count = %d, want 2", spec.NodeCount)
	}
	if spec.NodeCapacity != (qos.ResourceVector{Cores: 4, CacheWays: 16, MemoryMB: 4096}) {
		t.Errorf("node capacity = %v", spec.NodeCapacity)
	}
	if len(spec.Jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(spec.Jobs))
	}
	db := spec.Jobs[0]
	if db.Name != "db" || db.Benchmark != "bzip2" || db.Mode != qos.Strict() {
		t.Errorf("db = %+v", db)
	}
	if db.Resources != qos.PresetMedium() {
		t.Errorf("db resources = %v", db.Resources)
	}
	if db.TwNS != 500e6 || db.DeadlineFactor != 2.0 {
		t.Errorf("db timing = %+v", db)
	}
	batch := spec.Jobs[1]
	if batch.Mode.Kind != qos.KindElastic || batch.Mode.Slack != 0.05 {
		t.Errorf("batch mode = %v", batch.Mode)
	}
	scav := spec.Jobs[2]
	if scav.Mode.Kind != qos.KindOpportunistic || scav.ArrivalNS != 10e6 {
		t.Errorf("scav = %+v", scav)
	}
	raw := spec.Jobs[3]
	if raw.Resources != (qos.ResourceVector{Cores: 2, CacheWays: 8, MemoryMB: 512}) {
		t.Errorf("raw resources = %v", raw.Resources)
	}
	if raw.DeadlineNS != 900e6 {
		t.Errorf("raw deadline = %d", raw.DeadlineNS)
	}
}

func TestDefaults(t *testing.T) {
	spec, err := Parse(strings.NewReader("job bench=bzip2 tw=1ms\n"))
	if err != nil {
		t.Fatal(err)
	}
	j := spec.Jobs[0]
	if j.Resources.Cores != 1 || j.Resources.CacheWays != 7 {
		t.Errorf("defaults = %v, want 1 core / medium ways", j.Resources)
	}
	if spec.NodeCount != 1 {
		t.Error("default node count should be 1")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		line  int
	}{
		{"unknown directive", "blah x=1\n", 1},
		{"malformed field", "job bench\n", 1},
		{"duplicate key", "job bench=bzip2 bench=gobmk\n", 1},
		{"unknown benchmark", "job bench=nonesuch\n", 1},
		{"unknown mode", "job bench=bzip2 mode=turbo\n", 1},
		{"unknown preset", "job bench=bzip2 preset=huge\n", 1},
		{"bad slack", "job bench=bzip2 mode=elastic slack=lots\n", 1},
		{"bad tw", "job bench=bzip2 tw=soon\n", 1},
		{"deadline factor below 1", "job bench=bzip2 tw=1ms deadline=0.5\n", 1},
		{"deadline without tw", "job bench=bzip2 deadline=2.0\n", 1},
		{"duplicate names", "job name=a bench=bzip2 tw=1ms\njob name=a bench=gobmk tw=1ms\n", 2},
		{"bad node count", "node count=zero\njob bench=bzip2\n", 1},
		{"unknown node key", "node flavor=blue\njob bench=bzip2\n", 1},
		{"unknown job key", "job bench=bzip2 priority=9\n", 1},
		{"negative arrival", "job bench=bzip2 arrival=-5ms\n", 1},
	}
	for _, tc := range cases {
		_, err := Parse(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		var pe *ParseError
		if errors.As(err, &pe) && pe.Line != tc.line {
			t.Errorf("%s: error at line %d, want %d (%v)", tc.name, pe.Line, tc.line, err)
		}
	}
	if _, err := Parse(strings.NewReader("# nothing\n")); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestRequestsConversion(t *testing.T) {
	spec, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	reqs := spec.Requests(2e9) // the paper's 2 GHz clock
	if len(reqs) != 4 {
		t.Fatalf("requests = %d", len(reqs))
	}
	db := reqs[0].Target.(qos.RUM)
	// 500 ms at 2 GHz = 1e9 cycles; factor-2 deadline = 2e9.
	if db.MaxWallClock != 1_000_000_000 {
		t.Errorf("tw cycles = %d", db.MaxWallClock)
	}
	if db.Deadline != 2_000_000_000 {
		t.Errorf("deadline cycles = %d", db.Deadline)
	}
	raw := reqs[3].Target.(qos.RUM)
	// Absolute 900 ms deadline = 1.8e9 cycles after arrival 0.
	if raw.Deadline != 1_800_000_000 {
		t.Errorf("absolute deadline = %d", raw.Deadline)
	}
	scav := reqs[2]
	if scav.Arrival != 20_000_000 { // 10 ms at 2 GHz
		t.Errorf("arrival cycles = %d", scav.Arrival)
	}
	// And they are admissible end to end.
	l := qos.NewLAC(spec.NodeCapacity)
	for _, r := range reqs {
		if d := l.Admit(r); !d.Accepted {
			t.Errorf("job %d rejected: %s", r.JobID, d.Reason)
		}
	}
}

func TestDurationAndUnitHelpers(t *testing.T) {
	if n, err := parseDuration("250"); err != nil || n != 250 {
		t.Errorf("bare duration = %d, %v", n, err)
	}
	if _, err := parseDuration("-5ms"); err == nil {
		t.Error("negative duration accepted")
	}
	if f, err := parsePercent("12.5%"); err != nil || f != 0.125 {
		t.Errorf("percent = %v, %v", f, err)
	}
	if f, err := parsePercent("0.2"); err != nil || f != 0.2 {
		t.Errorf("fraction = %v, %v", f, err)
	}
	if mb, err := parseMB("2GB"); err != nil || mb != 2048 {
		t.Errorf("GB = %d, %v", mb, err)
	}
	if mb, err := parseMB("512"); err != nil || mb != 512 {
		t.Errorf("bare MB = %d, %v", mb, err)
	}
	if Cycles(1_000_000_000, 2e9) != 2_000_000_000 {
		t.Error("cycle conversion wrong")
	}
}

func TestScriptConversion(t *testing.T) {
	spec, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	script := spec.Script()
	if len(script) != 4 {
		t.Fatalf("script length = %d", len(script))
	}
	// Entries are sorted by arrival: db, batch, raw (all 0), then scav.
	if script[0].Template.Benchmark != "bzip2" || script[0].DeadlineFactor != 2.0 {
		t.Errorf("entry 0 = %+v", script[0])
	}
	if script[1].Template.Hint.String() != "elastic" {
		t.Errorf("entry 1 hint = %v", script[1].Template.Hint)
	}
	// Absolute 900 ms deadline over 100 ms tw → factor 9.
	if script[2].DeadlineFactor != 9.0 {
		t.Errorf("entry 2 factor = %v, want 9", script[2].DeadlineFactor)
	}
	if script[3].Template.Hint.String() != "opportunistic" || script[3].Arrival != 20_000_000 {
		t.Errorf("entry 3 = %+v", script[3])
	}
	// And it runs end to end through the simulator.
	cfg := sim.DefaultConfig(sim.Hybrid2, workload.Composition{Name: "jf"})
	cfg.JobInstr = 5_000_000
	cfg.StealIntervalInstr = 250_000
	cfg.Script = script
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs)+rep.Rejected != 4 {
		t.Errorf("resolved %d+%d jobs, want 4", len(rep.Jobs), rep.Rejected)
	}
	if rep.DeadlineHitRate != 1.0 {
		t.Errorf("scripted run hit rate = %v", rep.DeadlineHitRate)
	}
}
