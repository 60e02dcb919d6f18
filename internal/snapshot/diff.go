package snapshot

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"github.com/digs-net/digs/internal/stack"
)

// Diff compares two snapshots field by field and returns one line per
// difference, empty when they are equivalent. It is the engine behind
// `digs-snap diff` and the bisect workflow: two runs that should have been
// identical diverge somewhere, and the first differing field names the
// subsystem to look at.
func Diff(a, b *Snapshot) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	if a.Meta.Protocol != b.Meta.Protocol {
		add("meta.protocol: %q vs %q", a.Meta.Protocol, b.Meta.Protocol)
	}
	if a.Meta.Topology != b.Meta.Topology {
		add("meta.topology: %q vs %q", a.Meta.Topology, b.Meta.Topology)
	}
	if a.Meta.Seed != b.Meta.Seed {
		add("meta.seed: %d vs %d", a.Meta.Seed, b.Meta.Seed)
	}
	if a.Meta.Slot != b.Meta.Slot {
		add("meta.slot: %d vs %d", a.Meta.Slot, b.Meta.Slot)
	}
	if a.Meta.ConfigHash != b.Meta.ConfigHash {
		add("meta.config_hash: %016x vs %016x", a.Meta.ConfigHash, b.Meta.ConfigHash)
	}

	diffStruct(add, "net", a.Net, b.Net)

	n := len(a.MACs)
	if len(b.MACs) != n {
		add("mac: %d vs %d nodes", len(a.MACs), len(b.MACs))
	} else {
		for i := 1; i < n; i++ {
			diffStruct(add, fmt.Sprintf("mac[%d]", i), a.MACs[i], b.MACs[i])
		}
	}
	tag := "stack"
	if codec, err := stack.Lookup(a.Meta.Protocol); err == nil && codec.Section != "" {
		tag = codec.Section
	}
	if len(a.Stack) != len(b.Stack) {
		add("%s: %d vs %d stacks", tag, len(a.Stack), len(b.Stack))
	} else {
		for i := 1; i < len(a.Stack); i++ {
			diffStruct(add, fmt.Sprintf("%s[%d]", tag, i), a.Stack[i], b.Stack[i])
		}
	}
	return out
}

// diffStruct reports, per top-level field of a (possibly pointed-to)
// struct, whether the two values differ. Reflection keeps it honest as
// state structs grow fields: a new field can never silently escape diff
// coverage. The fields of an embedded struct (the rpl.NodeState the RPL
// family's states share) read as the outer struct's own.
func diffStruct(add func(string, ...any), prefix string, a, b any) {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	nilA := !va.IsValid() || (va.Kind() == reflect.Pointer && va.IsNil())
	nilB := !vb.IsValid() || (vb.Kind() == reflect.Pointer && vb.IsNil())
	if nilA || nilB {
		if nilA != nilB {
			add("%s: present only on one side", prefix)
		}
		return
	}
	for va.Kind() == reflect.Pointer {
		va, vb = va.Elem(), vb.Elem()
	}
	if va.Kind() != reflect.Struct || va.Type() != vb.Type() {
		if !reflect.DeepEqual(a, b) {
			add("%s: differs", prefix)
		}
		return
	}
	t := va.Type()
	for i := 0; i < t.NumField(); i++ {
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		if t.Field(i).Anonymous {
			diffStruct(add, prefix, fa, fb)
		} else if !reflect.DeepEqual(fa, fb) {
			add("%s.%s: %s vs %s", prefix, t.Field(i).Name, compact(fa), compact(fb))
		}
	}
}

// compact renders a field value small enough for one diff line.
func compact(v any) string {
	s := fmt.Sprintf("%+v", v)
	if len(s) > 48 {
		s = s[:45] + "..."
	}
	return s
}

// Summary renders a human-readable overview of a snapshot for
// `digs-snap info`.
func Summary(s *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol:    %s\n", s.Meta.Protocol)
	fmt.Fprintf(&b, "topology:    %s (%d nodes, %d APs)\n", s.Meta.Topology, s.Meta.Nodes, s.Meta.NumAPs)
	fmt.Fprintf(&b, "seed:        %d\n", s.Meta.Seed)
	fmt.Fprintf(&b, "slot:        %d\n", s.Meta.Slot)
	fmt.Fprintf(&b, "config hash: %016x\n", s.Meta.ConfigHash)
	if s.Meta.Label != "" {
		fmt.Fprintf(&b, "label:       %s\n", s.Meta.Label)
	}
	if len(s.Meta.Extra) > 0 {
		keys := make([]string, 0, len(s.Meta.Extra))
		for k := range s.Meta.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "extra:       %s=%s\n", k, s.Meta.Extra[k])
		}
	}
	synced, queued := 0, 0
	for _, m := range s.MACs {
		if m == nil {
			continue
		}
		if m.Synced {
			synced++
		}
		queued += len(m.Queue) + len(m.DownQueue)
	}
	fmt.Fprintf(&b, "mac:         %d/%d synced, %d packets queued\n", synced, s.Meta.Nodes, queued)
	if len(s.Stack) > 0 {
		routed := 0
		for _, st := range s.Stack {
			if st != nil && st.Routed() {
				routed++
			}
		}
		fmt.Fprintf(&b, "routing:     %d/%d routed\n", routed, s.Meta.Nodes-s.Meta.NumAPs)
	}
	if len(s.SectionSizes) > 0 {
		tags := make([]string, 0, len(s.SectionSizes))
		for t := range s.SectionSizes {
			tags = append(tags, t)
		}
		sort.Strings(tags)
		parts := make([]string, len(tags))
		for i, t := range tags {
			parts[i] = fmt.Sprintf("%s=%dB", t, s.SectionSizes[t])
		}
		fmt.Fprintf(&b, "sections:    %s\n", strings.Join(parts, " "))
	}
	return b.String()
}
