package stack

import (
	"fmt"
	"sort"
	"strings"

	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/wire"
)

// Codec is a stack's single registration: the name it builds and
// snapshots under, how it is built, the snapshot section its state travels
// in, and the constructor of one node's zero state, which decodes itself
// through its own State.Code. A stack package registers its Codec from
// init, so any binary that links the stack can build it and decode it, and
// the registry is the one list of the stacks a spec may name.
type Codec struct {
	// Protocol is the -protocol name, stored in snapshot metadata.
	Protocol string
	// Build picks the stack's configuration from the arguments and
	// attaches it to every node of a fresh network.
	Build func(nw *sim.Network, a BuildArgs, macCfg mac.Config) (Bundle, error)
	// Section is the snapshot section tag. Empty for a stack with no
	// mutable state beyond its MAC nodes (New is then nil).
	Section string
	// New returns a zero state for State.Code to decode into.
	New func() State
}

// BuildArgs is what a stack's builder may read beyond the network and the
// MAC configuration: the seed, and the run's flow set, resolved once by
// the caller. Only WirelessHART's central schedule is dimensioned by the
// flows; the autonomous stacks take traffic as it comes.
type BuildArgs struct {
	Seed  int64
	Flows []flows.Flow
}

var codecs = map[string]Codec{}

// Register adds a stack's codec. Registration happens from init
// functions; an empty or duplicate name or section tag, a missing
// builder, or a section without a constructor, is a programming error.
func Register(c Codec) {
	if c.Protocol == "" || c.Build == nil || (c.Section == "") != (c.New == nil) {
		panic(fmt.Sprintf("stack: malformed codec registration %+v", c))
	}
	for _, have := range codecs {
		if have.Protocol == c.Protocol || (c.Section != "" && have.Section == c.Section) {
			panic(fmt.Sprintf("stack: codec %q/%q registered twice", c.Protocol, c.Section))
		}
	}
	codecs[c.Protocol] = c
}

// Lookup returns the codec registered under a protocol name; the error
// for an unknown name lists every registered one.
func Lookup(protocol string) (Codec, error) {
	c, ok := codecs[protocol]
	if !ok {
		return Codec{}, fmt.Errorf("unknown protocol %q (registered: %s)", protocol, Names())
	}
	return c, nil
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

// Names is the comma-joined Registered list, for flag help and rejection
// messages.
func Names() string { return strings.Join(Registered(), ", ") }

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
