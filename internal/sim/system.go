// Package sim is RTSS: a discrete-event real-time system simulator.
//
// It reproduces the simulator described in Section 5 of the paper: it
// simulates the execution of a real-time system under Preemptive Fixed
// Priority, EDF or D-OVER scheduling and records a temporal diagram of the
// simulated execution. As in the paper, the fixed-priority dispatcher is
// extended with aperiodic task servers. The server policies simulated here
// come in two flavours:
//
//   - the *ideal* policies described in the literature (resumable service,
//     no overhead) — what the paper's simulation columns report, and
//   - the *limited* policies mirroring the paper's Java implementation
//     (non-resumable handlers, admission on declared cost) — used for
//     differential testing against the virtual-time executive.
//
// The simulator charges no overheads; the paper notes that its simulations
// "do not take into account the servers overhead, nor the execution
// overhead".
package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rtsj/internal/rtime"
)

// PeriodicTask describes a hard periodic task.
type PeriodicTask struct {
	Name     string         // trace row and job-name prefix
	Offset   rtime.Time     // first release
	Period   rtime.Duration // > 0
	Cost     rtime.Duration // worst-case execution time
	Deadline rtime.Duration // relative; 0 means Deadline = Period
	Priority int            // fixed priority; larger is higher (FP only)
}

// RelDeadline returns the task's relative deadline (defaulting to Period).
func (t PeriodicTask) RelDeadline() rtime.Duration {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return t.Period
}

// AperiodicJob describes one aperiodic (or sporadic) arrival.
type AperiodicJob struct {
	Name    string         // display name; "" defaults to AperiodicName(index)
	Release rtime.Time     // arrival instant
	Cost    rtime.Duration // actual execution demand
	// Declared is the cost announced to the server (the handler's cost
	// parameter in the paper). 0 means Declared = Cost. Scenario 3 of the
	// paper declares a cost below the actual one.
	Declared rtime.Duration
	// Deadline is the relative deadline, used by EDF and D-OVER.
	// 0 means no deadline (soft aperiodic).
	Deadline rtime.Duration
	// Value is the reward for completing the job by its deadline (D-OVER).
	// 0 means Value = Cost in time units.
	Value float64
}

// DeclaredCost returns the cost announced to the server.
func (a AperiodicJob) DeclaredCost() rtime.Duration {
	if a.Declared > 0 {
		return a.Declared
	}
	return a.Cost
}

// value returns the D-OVER reward, defaulting to the cost in time units.
func (a AperiodicJob) value() float64 {
	if a.Value > 0 {
		return a.Value
	}
	return a.Cost.TUs()
}

// ServerPolicy selects an aperiodic servicing policy for the FP dispatcher.
type ServerPolicy int

// Supported server policies.
const (
	// NoServer schedules aperiodics in the background (lowest priority).
	// This is the trivial baseline of Section 2 of the paper.
	NoServer ServerPolicy = iota
	// PollingServer is the ideal PS of the literature (resumable).
	PollingServer
	// DeferrableServer is the ideal DS of the literature (resumable).
	DeferrableServer
	// LimitedPollingServer mirrors the paper's Java PS implementation:
	// non-resumable handlers, admission on declared cost, service budget
	// equal to the remaining capacity.
	LimitedPollingServer
	// LimitedDeferrableServer mirrors the paper's Java DS implementation,
	// including the budget-extension rule across a replenishment boundary.
	LimitedDeferrableServer
	// SporadicServer is a high-priority sporadic server (Sprunt et al.):
	// capacity consumed is replenished one server period after the start
	// of the serving burst.
	SporadicServer
	// PriorityExchange is the PE server (Lehoczky et al.): unused capacity
	// is preserved by exchanging it with lower-priority periodic
	// execution instead of being discarded.
	PriorityExchange
	// SlackStealer serves aperiodics at the top priority whenever doing so
	// cannot make a periodic task miss (Lehoczky & Ramos-Thuel). It has no
	// capacity or period; the ServerSpec fields are ignored.
	SlackStealer
)

// String returns the conventional abbreviation for the policy.
func (p ServerPolicy) String() string {
	switch p {
	case NoServer:
		return "BG"
	case PollingServer:
		return "PS"
	case DeferrableServer:
		return "DS"
	case LimitedPollingServer:
		return "PS-lim"
	case LimitedDeferrableServer:
		return "DS-lim"
	case SporadicServer:
		return "SS"
	case PriorityExchange:
		return "PE"
	case SlackStealer:
		return "SLACK"
	default:
		return fmt.Sprintf("ServerPolicy(%d)", int(p))
	}
}

// ParseServerPolicy returns the policy whose lower-cased String() is name
// ("bg", "ps", "ds", "ps-lim", "ds-lim", "ss", "pe", "slack"): the one
// vocabulary of the spec format and the command-line flags.
func ParseServerPolicy(name string) (ServerPolicy, bool) {
	for p := NoServer; p <= SlackStealer; p++ {
		if strings.ToLower(p.String()) == name {
			return p, true
		}
	}
	return 0, false
}

// ServerSpec configures the aperiodic task server of a system.
type ServerSpec struct {
	Name     string         // trace row name; defaults to the policy abbreviation
	Policy   ServerPolicy   // servicing policy
	Capacity rtime.Duration // service budget per period
	Period   rtime.Duration // replenishment period
	Priority int            // the paper requires the server at the highest priority
}

func (s ServerSpec) name() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Policy.String()
}

// System is a complete workload: periodic tasks, aperiodic arrivals and an
// optional task server.
type System struct {
	Periodics  []PeriodicTask // hard periodic task set
	Aperiodics []AperiodicJob // aperiodic arrivals, any order
	Server     *ServerSpec    // aperiodic task server; nil means background
}

// Validate reports structural problems in the system description.
func (s System) Validate() error {
	for i, t := range s.Periodics {
		if t.Period <= 0 {
			return fmt.Errorf("sim: periodic task %d (%s): period must be positive", i, t.Name)
		}
		if t.Cost < 0 {
			return fmt.Errorf("sim: periodic task %d (%s): negative cost", i, t.Name)
		}
		if t.Cost > t.Period {
			return fmt.Errorf("sim: periodic task %d (%s): cost exceeds period", i, t.Name)
		}
		if t.Deadline < 0 {
			return fmt.Errorf("sim: periodic task %d (%s): negative deadline", i, t.Name)
		}
	}
	for i, a := range s.Aperiodics {
		if a.Cost <= 0 {
			return fmt.Errorf("sim: aperiodic job %d (%s): cost must be positive", i, a.Name)
		}
		if a.Release < 0 {
			return fmt.Errorf("sim: aperiodic job %d (%s): negative release", i, a.Name)
		}
	}
	if s.Server != nil && s.Server.Policy != NoServer && s.Server.Policy != SlackStealer {
		if s.Server.Capacity <= 0 || s.Server.Period <= 0 {
			return fmt.Errorf("sim: server: capacity and period must be positive")
		}
	}
	return nil
}

// Utilization returns the total periodic utilization, including the server
// treated as a periodic task if present.
func (s System) Utilization() float64 {
	u := 0.0
	for _, t := range s.Periodics {
		u += float64(t.Cost) / float64(t.Period)
	}
	if s.Server != nil && s.Server.Policy != NoServer {
		u += float64(s.Server.Capacity) / float64(s.Server.Period)
	}
	return u
}

// Job is a runtime instance of a periodic task release or an aperiodic
// arrival.
type Job struct {
	Periodic bool           // periodic release, not an aperiodic arrival
	Release  rtime.Time     // release instant
	AbsDL    rtime.Time     // absolute deadline; rtime.Forever when none
	Cost     rtime.Duration // actual execution demand
	Declared rtime.Duration // cost announced to the server
	Value    float64        // D-OVER completion reward
	Priority int            // fixed priority (FP only)

	Remaining rtime.Duration // demand not yet executed
	Started   bool           // the job has run at least one slice
	Finished  bool           // the job completed its demand
	Finish    rtime.Time     // completion instant, when Finished
	// Aborted is set when a server interrupted the job (limited policies)
	// or D-OVER abandoned it.
	Aborted bool
	AbortAt rtime.Time // abort instant, when Aborted

	// Entity and ServedBy control trace attribution: periodic jobs run on
	// their own row; aperiodics served by a server appear on the server's
	// row with the job name as label.
	Entity string // trace row the job's slices are drawn on
	Label  string // slice label on the server row; "" uses Name

	// name is the display name, formatted lazily for periodic releases so
	// the engine's release loop stays free of string formatting; instance
	// is the 1-based periodic release number it encodes.
	name     string
	instance int64
	seq      int64
	taskIdx  int // index into System.Periodics, or -1
	apIdx    int // index into System.Aperiodics, or -1
}

// Name returns the job's display name ("tau1#3" for the third release of
// tau1; the aperiodic's configured or generated name). Periodic instance
// names are formatted on first access and cached: like Result and
// trace.Trace, a Job is not safe for concurrent use — share Results
// across harness workers only after the run, one reader at a time.
func (j *Job) Name() string {
	if j.name == "" && j.Periodic {
		j.name = j.Entity + "#" + strconv.FormatInt(j.instance, 10)
	}
	return j.name
}

// AperiodicName names an unnamed aperiodic arrival after its zero-based
// index ("J1", "J2", ...), without fmt. Both engines (sim and the Task
// Server Framework bridge) use it, so cross-engine differential tests can
// match jobs to handler records by name.
func AperiodicName(idx int) string { return "J" + strconv.Itoa(idx+1) }

// ResponseTime returns finish - release for finished jobs.
func (j *Job) ResponseTime() rtime.Duration {
	if !j.Finished {
		return -1
	}
	return j.Finish.Sub(j.Release)
}

// lateness helpers for D-OVER.
func (j *Job) slack(now rtime.Time) rtime.Duration {
	if j.AbsDL == rtime.Forever {
		return rtime.Duration(math.MaxInt64)
	}
	return j.AbsDL.Sub(now) - j.Remaining
}
