// Package mactest holds test helpers shared by the mac.Protocol
// implementations.
package mactest

import (
	"testing"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
)

// Schedule is the part of mac.Protocol the nap decision rests on.
type Schedule interface {
	Assignment(asn sim.ASN) mac.Assignment
	NextActive(after sim.ASN) sim.ASN
}

// RequireNextActiveExact walks a stretch of slots backwards and requires
// NextActive to name, from every slot, precisely the first slot whose
// Assignment is not sleep. With the stack's timers parked its schedule is a
// pure function of the slot, so conservative is not enough: a cell NextActive
// invents costs a wake-up per frame for nothing.
func RequireNextActiveExact(t testing.TB, name string, p Schedule, from, span sim.ASN) {
	t.Helper()
	next := sim.ASN(-1)
	for asn := from + span; asn >= from; asn-- {
		if p.Assignment(asn).Role != mac.RoleSleep {
			next = asn
		}
		if got := p.NextActive(asn); next >= 0 && got != next {
			t.Fatalf("%s: NextActive(%d) = %d, first non-sleep slot is %d", name, asn, got, next)
		}
	}
	if next < 0 {
		t.Fatalf("%s: no active slot in %d slots", name, span)
	}
}
