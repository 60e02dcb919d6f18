package chaos

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// Recovery is a telemetry sink that folds a single run's event stream
// into per-fault recovery metrics: time-to-reconverge, packets lost
// during the repair window and drop attribution by reason. Chain it with
// other sinks via telemetry.Multi; it ignores the Job field (wrap runs
// individually, not a merged trace).
type Recovery struct {
	faults  []*FaultWindow
	open    map[faultKey]*FaultWindow
	spans   map[spanKey]*spanRec
	drops   []dropRec
	viols   []int64
	horizon int64
}

type faultKey struct{ entry, occ uint16 }

type spanKey struct {
	origin topology.NodeID
	flow   uint16
	seq    uint16
}

type spanRec struct {
	born      int64
	delivered bool
	// dropped marks a confirmed loss (some node dropped the packet and no
	// redundant copy delivered); undelivered, undropped spans in a
	// truncated window are in flight, not lost.
	dropped bool
}

type dropRec struct {
	asn    int64
	reason telemetry.DropReason
}

// FaultWindow is the observed lifecycle of one fault occurrence.
type FaultWindow struct {
	// Entry is the plan entry index, Occ the occurrence number.
	Entry, Occ int
	// Node is the fault's first target (0 for region faults).
	Node topology.NodeID
	// StartASN is when the fault hit; EndASN when its window closed (-1
	// for permanent faults); ReconASN when the injector declared the
	// network reconverged (-1 if it never did before the trace ended).
	StartASN, EndASN, ReconASN int64
}

var _ telemetry.Tracer = (*Recovery)(nil)

// NewRecovery returns an empty recovery analyzer.
func NewRecovery() *Recovery {
	return &Recovery{
		open:  make(map[faultKey]*FaultWindow),
		spans: make(map[spanKey]*spanRec),
	}
}

// Record implements telemetry.Tracer.
func (r *Recovery) Record(ev telemetry.Event) {
	if ev.ASN > r.horizon {
		r.horizon = ev.ASN
	}
	switch ev.Type {
	case telemetry.EvFaultStart:
		w := &FaultWindow{
			Entry: int(ev.Flow), Occ: int(ev.Seq), Node: ev.Node,
			StartASN: ev.ASN, EndASN: -1, ReconASN: -1,
		}
		r.faults = append(r.faults, w)
		r.open[faultKey{ev.Flow, ev.Seq}] = w
	case telemetry.EvFaultEnd:
		if w := r.open[faultKey{ev.Flow, ev.Seq}]; w != nil {
			w.EndASN = ev.ASN
		}
	case telemetry.EvReconverged:
		if w := r.open[faultKey{ev.Flow, ev.Seq}]; w != nil && w.ReconASN < 0 {
			w.ReconASN = ev.ASN
		}
	case telemetry.EvGenerated:
		k := spanKey{ev.Origin, ev.Flow, ev.Seq}
		if r.spans[k] == nil {
			r.spans[k] = &spanRec{born: ev.Born}
		}
	case telemetry.EvDelivered:
		k := spanKey{ev.Origin, ev.Flow, ev.Seq}
		s := r.spans[k]
		if s == nil {
			s = &spanRec{born: ev.Born}
			r.spans[k] = s
		}
		s.delivered = true
	case telemetry.EvDropped:
		// Duplicates are redundancy working, not loss.
		if ev.Reason != telemetry.ReasonDuplicate {
			r.drops = append(r.drops, dropRec{asn: ev.ASN, reason: ev.Reason})
			if s := r.spans[spanKey{ev.Origin, ev.Flow, ev.Seq}]; s != nil {
				s.dropped = true
			}
		}
	case telemetry.EvViolation:
		r.viols = append(r.viols, ev.ASN)
	}
}

// Flush implements telemetry.Tracer.
func (r *Recovery) Flush() error { return nil }

// FaultReport is one fault occurrence's recovery metrics.
type FaultReport struct {
	FaultWindow
	// TTRSlots is the time-to-reconverge in slots (-1: never
	// reconverged before the trace ended).
	TTRSlots int64
	// Truncated marks a fault whose trace ended mid-repair: the window is
	// clamped to the last event seen, the loss attribution is partial and
	// TTRSlots stays -1.
	Truncated bool
	// Generated counts application packets born inside the repair window
	// [StartASN, ReconASN] (clamped to the trace horizon when the network
	// never reconverged); Lost are those confirmed lost — never delivered,
	// and for truncated windows also seen dropped. InFlight counts a
	// truncated window's undelivered, undropped packets, whose fate the
	// trace does not tell (always 0 for reconverged faults).
	Generated, Lost, InFlight int
	// Violations counts invariant-violation events inside the repair
	// window (0 unless the run had the invariant monitor enabled).
	Violations int
	// Drops attributes the window's drop events by reason (duplicates
	// excluded). Forwarding drops can exceed Lost when redundant routes
	// still deliver the packet.
	Drops map[telemetry.DropReason]int
}

// Report folds the collected stream into per-fault metrics, in fault
// start order. Call it after the run (it recomputes from scratch each
// time).
func (r *Recovery) Report() []FaultReport {
	out := make([]FaultReport, 0, len(r.faults))
	for _, w := range r.faults {
		rep := FaultReport{
			FaultWindow: *w,
			TTRSlots:    -1,
			Drops:       make(map[telemetry.DropReason]int),
		}
		wend := r.horizon
		if w.ReconASN >= 0 {
			rep.TTRSlots = w.ReconASN - w.StartASN
			wend = w.ReconASN
		} else {
			rep.Truncated = true
		}
		for _, s := range r.spans {
			if s.born < w.StartASN || s.born > wend {
				continue
			}
			rep.Generated++
			if s.delivered {
				continue
			}
			if rep.Truncated && !s.dropped {
				rep.InFlight++
			} else {
				rep.Lost++
			}
		}
		for _, d := range r.drops {
			if d.asn >= w.StartASN && d.asn <= wend {
				rep.Drops[d.reason]++
			}
		}
		for _, v := range r.viols {
			if v >= w.StartASN && v <= wend {
				rep.Violations++
			}
		}
		out = append(out, rep)
	}
	return out
}

// Undelivered returns the total number of packets in the trace that were
// generated but not delivered by its end (whole run, not just fault
// windows): the lost ones and any still in flight when the trace ended,
// which the trace cannot tell apart — a crashed node's queue vanishes
// without a drop event.
func (r *Recovery) Undelivered() int {
	n := 0
	for _, s := range r.spans {
		if !s.delivered {
			n++
		}
	}
	return n
}

// Generated returns the total number of distinct packets in the trace.
func (r *Recovery) Generated() int { return len(r.spans) }

// WriteReport prints the per-fault recovery table of a run of plan p and
// the run's totals. A row's lost count excludes a truncated window's
// packets in flight; the totals count every packet undelivered at the end.
func WriteReport(w io.Writer, p *Plan, r *Recovery) {
	reps := r.Report()
	if len(reps) == 0 {
		fmt.Fprintln(w, "no faults fired inside the run window")
	} else {
		fmt.Fprintf(w, "%-6s %-13s %6s %10s %10s %9s %5s  %s\n",
			"fault", "kind", "target", "start", "ttr", "lost/gen", "viol", "drops in window")
		truncated := 0
		for _, f := range reps {
			ttr := "never"
			if f.TTRSlots >= 0 {
				ttr = sim.TimeAt(f.TTRSlots).String()
			} else if f.Truncated {
				ttr = "trunc"
				truncated += f.InFlight
			}
			fmt.Fprintf(w, "#%d.%-4d %-13s %6d %10v %10s %5d/%-3d %5d  %s\n",
				f.Entry, f.Occ, p.EntryKind(f.Entry), f.Node, sim.TimeAt(f.StartASN), ttr,
				f.Lost, f.Generated, f.Violations, dropSummary(f.Drops))
		}
		if truncated > 0 {
			fmt.Fprintf(w, "trace ended mid-repair: %d packet(s) still in flight, not counted lost\n",
				truncated)
		}
	}
	fmt.Fprintf(w, "totals: generated %d, undelivered %d\n", r.Generated(), r.Undelivered())
}

// dropSummary formats a drop-reason map deterministically.
func dropSummary(drops map[telemetry.DropReason]int) string {
	if len(drops) == 0 {
		return "-"
	}
	reasons := make([]telemetry.DropReason, 0, len(drops))
	for r := range drops {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	parts := make([]string, 0, len(reasons))
	for _, r := range reasons {
		parts = append(parts, fmt.Sprintf("%s=%d", r, drops[r]))
	}
	return strings.Join(parts, " ")
}
