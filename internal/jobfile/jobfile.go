// Package jobfile parses the batch-job description format used by the
// qosctl tool. The paper grounds its RUM targets in batch-job systems
// (§3.2, citing LSBatch): users specify processor counts, capacity
// sizes, a maximum wall-clock time and a deadline. This format encodes
// exactly those fields, one directive per line:
//
//	# a cluster of two paper-sized nodes
//	node count=2 cores=4 ways=16
//
//	job name=db     bench=bzip2 mode=strict        preset=medium tw=500ms deadline=2.0
//	job name=batch  bench=gobmk mode=elastic slack=5% ways=7     tw=300ms deadline=3.0
//	job name=scav   bench=milc  mode=opportunistic ways=4        tw=200ms arrival=10ms
//
//	# deterministic fault injection (applies under qosctl -simulate)
//	fault core-fail at=5ms for=3ms core=1
//	fault way-fault at=2ms for=4ms ways=4
//	fault latency-spike at=1ms for=2ms factor=1.5
//
// Durations accept ns/us/ms/s suffixes or bare cycle counts; deadlines
// are either a factor of tw (a bare number like 2.0) or an absolute
// duration after arrival (e.g. 900ms). Fault at=/for= values are
// durations too (converted to cycles by FaultPlan); the remaining fault
// keys follow the fault package's text form.
package jobfile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"cmpqos/internal/cpu"
	"cmpqos/internal/fault"
	"cmpqos/internal/qos"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// JobSpec is one parsed job directive.
type JobSpec struct {
	Name      string
	Benchmark string
	Mode      qos.Mode
	Resources qos.ResourceVector
	ArrivalNS int64 // arrival offset, nanoseconds
	TwNS      int64 // maximum wall-clock, nanoseconds
	Instr     int64 // simulated instruction count (0 = simulator default)
	// DeadlineFactor (>0) or DeadlineNS (>0) — exactly one is set when a
	// deadline is present.
	DeadlineFactor float64
	DeadlineNS     int64
}

// Spec is a parsed job file.
type Spec struct {
	NodeCount    int
	NodeCapacity qos.ResourceVector
	Jobs         []JobSpec
	// Faults holds the file's fault directives with At/Duration still in
	// nanoseconds; FaultPlan converts them to cycles.
	Faults []fault.Event
}

// ParseError carries the offending line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string { return fmt.Sprintf("jobfile: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads a job file.
func Parse(r io.Reader) (*Spec, error) {
	spec := &Spec{
		NodeCount:    1,
		NodeCapacity: qos.ResourceVector{Cores: 4, CacheWays: 16},
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	names := map[string]bool{}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "fault" {
			// The kind name after the directive is not key=value, so the
			// fault line has its own decoder.
			if len(fields) < 2 {
				return nil, errf(lineNo, "fault directive needs a kind (core-fail|way-fault|latency-spike)")
			}
			e, err := parseFault(lineNo, fields[1], fields[2:])
			if err != nil {
				return nil, err
			}
			spec.Faults = append(spec.Faults, e)
			continue
		}
		kv, err := parseKVs(lineNo, fields[1:])
		if err != nil {
			return nil, err
		}
		switch fields[0] {
		case "node":
			if err := parseNode(lineNo, kv, spec); err != nil {
				return nil, err
			}
		case "job":
			j, err := parseJob(lineNo, kv)
			if err != nil {
				return nil, err
			}
			if j.Name != "" && names[j.Name] {
				return nil, errf(lineNo, "duplicate job name %q", j.Name)
			}
			names[j.Name] = true
			spec.Jobs = append(spec.Jobs, j)
		default:
			return nil, errf(lineNo, "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(spec.Jobs) == 0 {
		return nil, fmt.Errorf("jobfile: no jobs defined")
	}
	return spec, nil
}

func parseKVs(line int, fields []string) (map[string]string, error) {
	kv := map[string]string{}
	for _, f := range fields {
		i := strings.IndexByte(f, '=')
		if i <= 0 {
			return nil, errf(line, "malformed field %q (want key=value)", f)
		}
		key := f[:i]
		if _, dup := kv[key]; dup {
			return nil, errf(line, "duplicate key %q", key)
		}
		kv[key] = f[i+1:]
	}
	return kv, nil
}

func parseNode(line int, kv map[string]string, spec *Spec) error {
	for k, v := range kv {
		switch k {
		case "count":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return errf(line, "bad node count %q", v)
			}
			spec.NodeCount = n
		case "cores":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return errf(line, "bad cores %q", v)
			}
			spec.NodeCapacity.Cores = n
		case "ways":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return errf(line, "bad ways %q", v)
			}
			spec.NodeCapacity.CacheWays = n
		case "mem":
			mb, err := parseMB(v)
			if err != nil {
				return errf(line, "bad mem %q: %v", v, err)
			}
			spec.NodeCapacity.MemoryMB = mb
		default:
			return errf(line, "unknown node key %q", k)
		}
	}
	if err := qos.CheckCapacity(spec.NodeCapacity); err != nil {
		return errf(line, "%v", err)
	}
	return nil
}

func parseJob(line int, kv map[string]string) (JobSpec, error) {
	j := JobSpec{Mode: qos.Strict()}
	slack := 0.05
	modeName := "strict"
	for k, v := range kv {
		var err error
		switch k {
		case "name":
			j.Name = v
		case "bench":
			if _, ok := workload.ByName(v); !ok {
				return j, errf(line, "unknown benchmark %q", v)
			}
			j.Benchmark = v
		case "mode":
			modeName = v
		case "slack":
			slack, err = parsePercent(v)
			if err != nil {
				return j, errf(line, "bad slack %q: %v", v, err)
			}
		case "preset":
			switch v {
			case "small":
				j.Resources = qos.PresetSmall()
			case "medium":
				j.Resources = qos.PresetMedium()
			case "large":
				j.Resources = qos.PresetLarge()
			default:
				return j, errf(line, "unknown preset %q (small|medium|large)", v)
			}
		case "cores":
			j.Resources.Cores, err = strconv.Atoi(v)
			if err != nil {
				return j, errf(line, "bad cores %q", v)
			}
		case "ways":
			j.Resources.CacheWays, err = strconv.Atoi(v)
			if err != nil {
				return j, errf(line, "bad ways %q", v)
			}
		case "mem":
			j.Resources.MemoryMB, err = parseMB(v)
			if err != nil {
				return j, errf(line, "bad mem %q: %v", v, err)
			}
		case "tw":
			j.TwNS, err = parseDuration(v)
			if err != nil {
				return j, errf(line, "bad tw %q: %v", v, err)
			}
		case "arrival":
			j.ArrivalNS, err = parseDuration(v)
			if err != nil {
				return j, errf(line, "bad arrival %q: %v", v, err)
			}
		case "instr":
			j.Instr, err = strconv.ParseInt(v, 10, 64)
			if err != nil || j.Instr <= 0 {
				return j, errf(line, "bad instr %q", v)
			}
		case "deadline":
			// A bare number is a factor of tw; a suffixed value is an
			// absolute duration after arrival.
			if f, ferr := strconv.ParseFloat(v, 64); ferr == nil {
				if f < 1 {
					return j, errf(line, "deadline factor %v below 1", f)
				}
				j.DeadlineFactor = f
			} else {
				j.DeadlineNS, err = parseDuration(v)
				if err != nil {
					return j, errf(line, "bad deadline %q: %v", v, err)
				}
			}
		default:
			return j, errf(line, "unknown job key %q", k)
		}
	}
	switch modeName {
	case "strict":
		j.Mode = qos.Strict()
	case "elastic":
		if slack <= 0 || slack > 1 {
			return j, errf(line, "elastic slack %v out of (0,1]", slack)
		}
		j.Mode = qos.Elastic(slack)
	case "opportunistic":
		j.Mode = qos.Opportunistic()
	default:
		return j, errf(line, "unknown mode %q (strict|elastic|opportunistic)", modeName)
	}
	if !j.Resources.Valid() {
		return j, errf(line, "negative resource request %v", j.Resources)
	}
	if j.Resources.Cores == 0 {
		j.Resources.Cores = 1
	}
	if j.Resources.CacheWays == 0 {
		j.Resources.CacheWays = qos.PresetMedium().CacheWays
	}
	if j.Mode.Reserves() && j.TwNS == 0 && (j.DeadlineFactor > 0 || j.DeadlineNS > 0) {
		return j, errf(line, "a deadline requires tw")
	}
	return j, nil
}

// parseFault decodes one fault directive. The at= and for= values are
// durations in the file's own syntax; they are rewritten to integer
// nanosecond counts before handing the line to the fault package's
// shared event decoder, which owns every other key.
func parseFault(line int, kind string, kvs []string) (fault.Event, error) {
	out := make([]string, 0, len(kvs))
	for _, f := range kvs {
		i := strings.IndexByte(f, '=')
		if i <= 0 {
			return fault.Event{}, errf(line, "malformed field %q (want key=value)", f)
		}
		key, val := f[:i], f[i+1:]
		if key == "at" || key == "for" {
			ns, err := parseDuration(val)
			if err != nil {
				return fault.Event{}, errf(line, "bad %s %q: %v", key, val, err)
			}
			f = fmt.Sprintf("%s=%d", key, ns)
		}
		out = append(out, f)
	}
	e, err := fault.ParseEvent(kind, out)
	if err != nil {
		return fault.Event{}, errf(line, "%v", err)
	}
	return e, nil
}

// parseDuration accepts ns/us/ms/s suffixes or bare cycle-less numbers
// (interpreted as nanoseconds).
func parseDuration(s string) (int64, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("negative duration")
		}
		return n, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration")
	}
	return d.Nanoseconds(), nil
}

// parsePercent accepts "5%" or "0.05".
func parsePercent(s string) (float64, error) {
	if strings.HasSuffix(s, "%") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			return 0, err
		}
		return f / 100, nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseMB accepts "4096MB", "4GB", or a bare MB count.
func parseMB(s string) (int, error) {
	up := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(up, "GB"):
		n, err := strconv.Atoi(strings.TrimSuffix(up, "GB"))
		return n * 1024, err
	case strings.HasSuffix(up, "MB"):
		return strconv.Atoi(strings.TrimSuffix(up, "MB"))
	default:
		return strconv.Atoi(s)
	}
}

// Cycles converts a nanosecond quantity to cycles at the given clock.
func Cycles(ns int64, clockHz float64) int64 {
	return int64(float64(ns) / 1e9 * clockHz)
}

// Script converts the spec's jobs into a simulator submission script at
// the simulated core's clock, cpu.ClockHz. Modes map to hints (the
// simulator resolves hints through its policy; use sim.Hybrid2 to honor
// them all); absolute deadlines become factors of the file's tw. Jobs
// without a tw or a deadline get the relaxed default factor 3.
func (s *Spec) Script() []sim.ScriptedJob {
	out := make([]sim.ScriptedJob, 0, len(s.Jobs))
	for _, j := range s.Jobs {
		hint := workload.HintStrict
		switch j.Mode.Kind {
		case qos.KindElastic:
			hint = workload.HintElastic
		case qos.KindOpportunistic:
			hint = workload.HintOpportunistic
		}
		factor := 3.0
		switch {
		case j.DeadlineFactor > 0:
			factor = j.DeadlineFactor
		case j.DeadlineNS > 0 && j.TwNS > 0:
			factor = float64(j.DeadlineNS) / float64(j.TwNS)
			if factor < 1.01 {
				factor = 1.01
			}
		}
		out = append(out, sim.ScriptedJob{
			Template:       workload.JobTemplate{Benchmark: j.Benchmark, Hint: hint},
			Arrival:        Cycles(j.ArrivalNS, cpu.ClockHz),
			DeadlineFactor: factor,
			Instr:          j.Instr,
		})
	}
	// The simulator consumes submissions in arrival order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	return out
}

// FaultPlan converts the spec's fault directives into a cycle-domain
// injection plan at the simulated core's clock, cpu.ClockHz. A transient
// fault stays transient: durations are whole nanoseconds, and one is two
// cycles at that clock, while Duration 0 ("never recovers" in the fault
// package) stays 0.
func (s *Spec) FaultPlan() fault.Plan {
	if len(s.Faults) == 0 {
		return fault.Plan{}
	}
	ev := make([]fault.Event, len(s.Faults))
	for i, e := range s.Faults {
		e.At, e.Duration = Cycles(e.At, cpu.ClockHz), Cycles(e.Duration, cpu.ClockHz)
		ev[i] = e
	}
	return fault.Plan{Events: ev}
}

// Requests converts the spec's jobs into admission requests at the given
// clock frequency, in arrival order.
func (s *Spec) Requests(clockHz float64) []qos.Request {
	out := make([]qos.Request, 0, len(s.Jobs))
	for i, j := range s.Jobs {
		arrival := Cycles(j.ArrivalNS, clockHz)
		tw := Cycles(j.TwNS, clockHz)
		rum := qos.RUM{Resources: j.Resources, MaxWallClock: tw}
		switch {
		case j.DeadlineFactor > 0:
			rum.Deadline = arrival + int64(j.DeadlineFactor*float64(tw))
		case j.DeadlineNS > 0:
			rum.Deadline = arrival + Cycles(j.DeadlineNS, clockHz)
		}
		out = append(out, qos.Request{
			JobID:   i + 1,
			Target:  rum,
			Mode:    s.Jobs[i].Mode,
			Arrival: arrival,
		})
	}
	return out
}
