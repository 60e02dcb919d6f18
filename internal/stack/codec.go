package stack

import (
	"fmt"
	"sort"

	"github.com/digs-net/digs/internal/wire"
)

// Codec is a stack's single registration: the name it builds and
// snapshots under, the snapshot section its state travels in, and the
// decoder for one node's state. A stack package registers its Codec from
// init, so any binary that can build the stack can also decode it.
type Codec struct {
	// Protocol is the -protocol name, stored in snapshot metadata.
	Protocol string
	// Section is the snapshot section tag. Empty for a stack with no
	// mutable state beyond its MAC nodes (Read is then nil).
	Section string
	// Read decodes one node's state as State.AppendTo wrote it. Failures
	// surface through the reader's sticky error.
	Read func(r *wire.Reader) State
}

var codecs = map[string]Codec{}

// Register adds a stack's codec. Registration happens from init
// functions; an empty or duplicate name or section tag, or a section
// without a decoder, is a programming error.
func Register(c Codec) {
	if c.Protocol == "" || (c.Section == "") != (c.Read == nil) {
		panic(fmt.Sprintf("stack: malformed codec registration %+v", c))
	}
	for _, have := range codecs {
		if have.Protocol == c.Protocol || (c.Section != "" && have.Section == c.Section) {
			panic(fmt.Sprintf("stack: codec %q/%q registered twice", c.Protocol, c.Section))
		}
	}
	codecs[c.Protocol] = c
}

// Lookup returns the codec registered under a protocol name.
func Lookup(protocol string) (Codec, bool) {
	c, ok := codecs[protocol]
	return c, ok
}

// LookupSection returns the codec whose state travels in a section tag.
func LookupSection(tag string) (Codec, bool) {
	if tag == "" {
		return Codec{}, false
	}
	for _, c := range codecs {
		if c.Section == tag {
			return c, true
		}
	}
	return Codec{}, false
}

// Registered lists the registered protocol names, sorted.
func Registered() []string {
	names := make([]string, 0, len(codecs))
	for name := range codecs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// AppendStates writes a whole network's states (indexed by node ID, nil
// entries allowed) as one snapshot section body.
func AppendStates(w *wire.Writer, states []State) {
	w.U64(uint64(len(states)))
	for _, s := range states {
		w.Bool(s != nil)
		if s != nil {
			s.AppendTo(w)
		}
	}
}

// ReadStates decodes what AppendStates wrote, one node at a time through
// the stack's decoder.
func ReadStates(r *wire.Reader, read func(*wire.Reader) State) []State {
	n := r.Count(1)
	out := make([]State, n)
	for i := range out {
		if r.Bool() {
			out[i] = read(r)
		}
		if r.Err() != nil {
			return nil
		}
	}
	return out
}
