package scenario

import (
	"sort"
	"strings"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
)

// StackBuilder chooses one protocol stack's configuration and attaches it
// to every node of the freshly built network, returning the bundle. The
// builder receives the resolved Params (Topology non-nil, Period filled)
// and the MAC configuration the scenario computed from them.
type StackBuilder func(nw *sim.Network, p Params, macCfg mac.Config) (stack.Bundle, error)

// StackRegistered reports whether a protocol name has a registered stack.
func StackRegistered(name string) bool {
	_, ok := stackRegistry[name]
	return ok
}

// RegisteredStacks lists the registered protocol names, sorted.
func RegisteredStacks() []string {
	names := make([]string, 0, len(stackRegistry))
	for name := range stackRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// StackNames is the comma-joined registry contents, for flag help text and
// rejection messages.
func StackNames() string {
	return strings.Join(RegisteredStacks(), ", ")
}
