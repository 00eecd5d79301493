package jobfile

import (
	"errors"
	"strings"
	"testing"

	"cmpqos/internal/cpu"
	"cmpqos/internal/fault"
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

// faultSample schedules one fault of each kind; the permanent one has a
// zero duration.
const faultSample = `
job bench=bzip2 preset=small tw=1ms
job bench=gobmk preset=large tw=1ms
fault core-fail at=2ms for=500us core=1
fault way-fault at=1ms for=0 ways=4
fault latency-spike at=3000 for=1ms factor=2.5
`

// TestParseFaults: each fault line parses to the event fault.ParseEvent
// decodes from the same fields with at= and for= in nanoseconds, and the
// plan carries them to cycles at the simulated clock, a zero duration
// staying permanent.
func TestParseFaults(t *testing.T) {
	spec, err := Parse(strings.NewReader(faultSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Jobs) != 2 || spec.Jobs[0].Resources != qos.PresetSmall() || spec.Jobs[1].Resources != qos.PresetLarge() {
		t.Fatalf("jobs = %+v, want a small and a large job", spec.Jobs)
	}
	fields := []struct {
		kind string
		kvs  []string
	}{
		{"core-fail", []string{"at=2000000", "for=500000", "core=1"}},
		{"way-fault", []string{"at=1000000", "for=0", "ways=4"}},
		{"latency-spike", []string{"at=3000", "for=1000000", "factor=2.5"}},
	}
	if len(spec.Faults) != len(fields) {
		t.Fatalf("faults = %+v, want %d", spec.Faults, len(fields))
	}
	for i, f := range fields {
		want, err := fault.ParseEvent(f.kind, f.kvs)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Faults[i] != want {
			t.Errorf("fault %d = %+v, want %+v", i, spec.Faults[i], want)
		}
	}
	plan := spec.FaultPlan()
	cycles := func(ns int64) int64 { return int64(float64(ns) / 1e9 * cpu.ClockHz) }
	for i, e := range plan.Events {
		if f := spec.Faults[i]; e.At != cycles(f.At) || e.Duration != cycles(f.Duration) {
			t.Errorf("plan event %d = [%d +%d), want [%d +%d)", i, e.At, e.Duration, cycles(f.At), cycles(f.Duration))
		}
	}
	if plan.Events[1].Duration != 0 {
		t.Error("a permanent fault became transient")
	}
	if err := plan.Validate(4, 16); err != nil {
		t.Error(err)
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
		{"negative bare arrival", "job bench=bzip2 arrival=-5\n", 1},
		{"bad job cores", "job bench=bzip2 cores=two\n", 1},
		{"bad job ways", "job bench=bzip2 ways=many\n", 1},
		{"bad job mem", "job bench=bzip2 mem=lots\n", 1},
		{"bad instr", "job bench=bzip2 instr=0\n", 1},
		{"bad arrival", "job bench=bzip2 arrival=later\n", 1},
		{"bad deadline", "job bench=bzip2 tw=1ms deadline=never\n", 1},
		{"bad slack percent", "job bench=bzip2 mode=elastic slack=x%\n", 1},
		{"negative resources", "job bench=bzip2 cores=-1\n", 1},
		{"bad node cores", "node cores=0\njob bench=bzip2\n", 1},
		{"bad node ways", "node ways=-2\njob bench=bzip2\n", 1},
		{"bad node mem", "node mem=4TB\njob bench=bzip2\n", 1},
		{"negative node mem", "node mem=-1\njob bench=bzip2\n", 1},
		{"node cores above the bound", "node cores=1073741824\njob bench=bzip2\n", 1},
		{"node mem above the bound", "node mem=1048576GB\njob bench=bzip2\n", 1},
		{"fault without kind", "job bench=bzip2\nfault\n", 2},
		{"malformed fault field", "job bench=bzip2\nfault core-fail at\n", 2},
		{"bad fault at", "job bench=bzip2\nfault core-fail at=soon core=1\n", 2},
		{"bad fault for", "job bench=bzip2\nfault core-fail at=1ms for=-2ms core=1\n", 2},
		{"fault field of another kind", "job bench=bzip2\nfault core-fail at=1ms ways=2\n", 2},
		{"line too long", "job bench=bzip2 name=" + strings.Repeat("x", 70_000) + "\n", 0},
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
	// An absolute deadline no later than tw leaves the job its 1% of
	// slack: the simulator's deadlines come from the factor alone.
	tight, err := Parse(strings.NewReader("job bench=bzip2 tw=100ms deadline=100ms\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f := tight.Script()[0].DeadlineFactor; f != 1.01 {
		t.Errorf("factor of a deadline at tw = %v, want 1.01", f)
	}
}
