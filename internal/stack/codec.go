package stack

import (
	"fmt"
	"sort"

	"github.com/digs-net/digs/internal/wire"
)

// Codec is a stack's single registration: the name it builds and
// snapshots under, the snapshot section its state travels in, and the
// constructor of one node's zero state, which decodes itself through its
// own State.Code. A stack package registers its Codec from init, so any
// binary that can build the stack can also decode it.
type Codec struct {
	// Protocol is the -protocol name, stored in snapshot metadata.
	Protocol string
	// Section is the snapshot section tag. Empty for a stack with no
	// mutable state beyond its MAC nodes (New is then nil).
	Section string
	// New returns a zero state for State.Code to decode into.
	New func() State
}

var codecs = map[string]Codec{}

// Register adds a stack's codec. Registration happens from init
// functions; an empty or duplicate name or section tag, or a section
// without a constructor, is a programming error.
func Register(c Codec) {
	if c.Protocol == "" || (c.Section == "") != (c.New == nil) {
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

// CodeStates walks a whole network's states (indexed by node ID, nil
// entries allowed) as one snapshot section body: a count, then each entry
// behind a presence flag. Decoding builds every present entry with the
// stack's Codec.New and leaves nil at the first failure.
func CodeStates(c *wire.Coder, states *[]State, newState func() State) {
	n := c.Len(len(*states), 1)
	wire.Vector(c, states, n, func(s *State) {
		if c.Present(*s != nil) {
			if c.Decoding() {
				*s = newState()
			}
			(*s).Code(c)
		}
	})
}
