// Package spec parses the textual system description consumed by the rtss
// command (and produced by rtgen), a line-oriented format:
//
//	# comment
//	policy fp                     # fp (default) | edf | dover
//	server ps 4 6 prio=100        # ps | ds | ps-lim | ds-lim | ss | bg
//	periodic tau1 6 2 prio=2      # name period cost [prio=] [offset=] [deadline=]
//	aperiodic J1 2.5 3            # name release cost [declared=] [deadline=] [value=]
//	horizon 60
//	faults seed=1 overrun=0.2:0.5 # deterministic fault plan (see faults.ParseArgs)
//
// Durations and instants are in time units unless suffixed (see
// rtime.ParseDuration).
package spec

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rtsj/internal/faults"
	"rtsj/internal/gen"
	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

// PolicyKind selects the top-level dispatcher.
type PolicyKind int

// Dispatcher kinds.
const (
	FP PolicyKind = iota
	EDF
	DOver
)

// File is a parsed system description.
type File struct {
	Policy  PolicyKind // dispatcher the file selects
	System  sim.System // the described workload
	Horizon rtime.Time // observation window (default 60 tu)
	// Faults is the optional deterministic fault-injection plan declared
	// by a faults directive; nil when absent.
	Faults *faults.Plan
}

// Parse reads a system description. Besides malformed lines and invalid
// systems it rejects a file that asks for more than gen.MaxEventsPerSystem
// jobs (periodic releases before the horizon plus aperiodic events), so
// one file cannot make a run exhaust memory.
func Parse(r io.Reader) (*File, error) {
	f := &File{Horizon: rtime.AtTU(60)}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if err := f.parseLine(fields); err != nil {
			return nil, fmt.Errorf("spec: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := f.System.Validate(); err != nil {
		return nil, err
	}
	if !f.jobsWithin(gen.MaxEventsPerSystem) {
		return nil, fmt.Errorf("spec: the file asks for more than %d jobs up to horizon %v",
			gen.MaxEventsPerSystem, rtime.Duration(f.Horizon))
	}
	return f, nil
}

// jobsWithin reports whether a run of f releases at most limit jobs: every
// aperiodic event and each periodic release before the horizon. Periods
// must be positive (System.Validate).
func (f *File) jobsWithin(limit uint64) bool {
	n := uint64(len(f.System.Aperiodics))
	if n > limit {
		return false
	}
	for _, t := range f.System.Periodics {
		if t.Offset >= f.Horizon {
			continue
		}
		// The span fits in a uint64 for any offset below the horizon,
		// negative offsets included.
		span := uint64(f.Horizon) - uint64(t.Offset)
		k := (span-1)/uint64(t.Period) + 1
		if k > limit-n {
			return false
		}
		n += k
	}
	return true
}

func (f *File) parseLine(fields []string) error {
	switch fields[0] {
	case "policy":
		if len(fields) != 2 {
			return fmt.Errorf("policy wants one argument")
		}
		switch fields[1] {
		case "fp":
			f.Policy = FP
		case "edf":
			f.Policy = EDF
		case "dover", "d-over":
			f.Policy = DOver
		default:
			return fmt.Errorf("unknown policy %q", fields[1])
		}
	case "horizon":
		if len(fields) != 2 {
			return fmt.Errorf("horizon wants one argument")
		}
		d, err := rtime.ParseDuration(fields[1])
		if err != nil {
			return err
		}
		f.Horizon = rtime.Time(d)
	case "server":
		if len(fields) < 4 {
			return fmt.Errorf("server wants: server <policy> <capacity> <period> [prio=N]")
		}
		pol, ok := sim.ParseServerPolicy(fields[1])
		if !ok {
			return fmt.Errorf("unknown server policy %q", fields[1])
		}
		capa, err := rtime.ParseDuration(fields[2])
		if err != nil {
			return err
		}
		period, err := rtime.ParseDuration(fields[3])
		if err != nil {
			return err
		}
		srv := &sim.ServerSpec{Policy: pol, Capacity: capa, Period: period, Priority: 100}
		for _, opt := range fields[4:] {
			if err := parseOpt(opt, map[string]func(string) error{
				"prio": func(v string) error { return parseInt(v, &srv.Priority) },
				"name": func(v string) error { srv.Name = v; return nil },
			}); err != nil {
				return err
			}
		}
		f.System.Server = srv
	case "periodic":
		if len(fields) < 4 {
			return fmt.Errorf("periodic wants: periodic <name> <period> <cost> [options]")
		}
		t := sim.PeriodicTask{Name: fields[1]}
		var err error
		if t.Period, err = rtime.ParseDuration(fields[2]); err != nil {
			return err
		}
		if t.Cost, err = rtime.ParseDuration(fields[3]); err != nil {
			return err
		}
		for _, opt := range fields[4:] {
			if err := parseOpt(opt, map[string]func(string) error{
				"prio": func(v string) error { return parseInt(v, &t.Priority) },
				"offset": func(v string) error {
					d, err := rtime.ParseDuration(v)
					t.Offset = rtime.Time(d)
					return err
				},
				"deadline": func(v string) error {
					var err error
					t.Deadline, err = rtime.ParseDuration(v)
					return err
				},
			}); err != nil {
				return err
			}
		}
		f.System.Periodics = append(f.System.Periodics, t)
	case "cpus":
		return fmt.Errorf("cpus is not supported: specs run on one CPU")
	case "faults":
		p, err := faults.ParseArgs(fields[1:])
		if err != nil {
			return err
		}
		f.Faults = p
	case "aperiodic":
		if len(fields) < 4 {
			return fmt.Errorf("aperiodic wants: aperiodic <name> <release> <cost> [options]")
		}
		j := sim.AperiodicJob{Name: fields[1]}
		rel, err := rtime.ParseDuration(fields[2])
		if err != nil {
			return err
		}
		j.Release = rtime.Time(rel)
		if j.Cost, err = rtime.ParseDuration(fields[3]); err != nil {
			return err
		}
		for _, opt := range fields[4:] {
			if err := parseOpt(opt, map[string]func(string) error{
				"declared": func(v string) error {
					var err error
					j.Declared, err = rtime.ParseDuration(v)
					return err
				},
				"deadline": func(v string) error {
					var err error
					j.Deadline, err = rtime.ParseDuration(v)
					return err
				},
				"value": func(v string) error {
					var err error
					j.Value, err = strconv.ParseFloat(v, 64)
					return err
				},
			}); err != nil {
				return err
			}
		}
		f.System.Aperiodics = append(f.System.Aperiodics, j)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}

func parseOpt(opt string, handlers map[string]func(string) error) error {
	k, v, ok := strings.Cut(opt, "=")
	if !ok {
		return fmt.Errorf("malformed option %q (want key=value)", opt)
	}
	h, ok := handlers[k]
	if !ok {
		return fmt.Errorf("unknown option %q", k)
	}
	return h(v)
}

func parseInt(v string, dst *int) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return err
	}
	*dst = n
	return nil
}

// Format renders a system description in the spec format (the inverse of
// Parse, used by rtgen).
func Format(f *File) string {
	var b strings.Builder
	switch f.Policy {
	case EDF:
		b.WriteString("policy edf\n")
	case DOver:
		b.WriteString("policy dover\n")
	default:
		b.WriteString("policy fp\n")
	}
	fmt.Fprintf(&b, "horizon %s\n", rtime.Duration(f.Horizon))
	if s := f.System.Server; s != nil {
		fmt.Fprintf(&b, "server %s %s %s prio=%d\n", strings.ToLower(s.Policy.String()), s.Capacity, s.Period, s.Priority)
	}
	for _, t := range f.System.Periodics {
		fmt.Fprintf(&b, "periodic %s %s %s prio=%d", t.Name, t.Period, t.Cost, t.Priority)
		if t.Offset != 0 {
			fmt.Fprintf(&b, " offset=%s", rtime.Duration(t.Offset))
		}
		if t.Deadline != 0 {
			fmt.Fprintf(&b, " deadline=%s", t.Deadline)
		}
		b.WriteByte('\n')
	}
	for _, j := range f.System.Aperiodics {
		fmt.Fprintf(&b, "aperiodic %s %s %s", j.Name, rtime.Duration(j.Release), j.Cost)
		if j.Declared != 0 && j.Declared != j.Cost {
			fmt.Fprintf(&b, " declared=%s", j.Declared)
		}
		if j.Deadline != 0 {
			fmt.Fprintf(&b, " deadline=%s", j.Deadline)
		}
		if j.Value != 0 {
			fmt.Fprintf(&b, " value=%g", j.Value)
		}
		b.WriteByte('\n')
	}
	if f.Faults != nil {
		fmt.Fprintf(&b, "faults %s\n", f.Faults)
	}
	return b.String()
}
