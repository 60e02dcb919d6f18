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
	NextActive(after sim.ASN, queued bool) sim.ASN
}

// RequireNextActiveExact walks a stretch of slots backwards and requires
// NextActive to name, from every slot, precisely the first slot whose
// Assignment is not sleep when data is queued, and the first whose
// Assignment is neither sleep nor the node's own RoleTxData when none is.
// With the stack's timers parked its schedule is a pure function of the
// slot, so conservative is not enough: a cell NextActive invents costs a
// wake-up per frame for nothing.
func RequireNextActiveExact(t testing.TB, name string, p Schedule, from, span sim.ASN) {
	t.Helper()
	next, listen := sim.ASN(-1), sim.ASN(-1)
	for asn := from + span; asn >= from; asn-- {
		switch p.Assignment(asn).Role {
		case mac.RoleSleep:
		case mac.RoleTxData:
			next = asn
		default:
			next, listen = asn, asn
		}
		if got := p.NextActive(asn, true); next >= 0 && got != next {
			t.Fatalf("%s: NextActive(%d, queued) = %d, first non-sleep slot is %d", name, asn, got, next)
		}
		if got := p.NextActive(asn, false); listen >= 0 && got != listen {
			t.Fatalf("%s: NextActive(%d, idle) = %d, first slot neither sleep nor own transmit is %d", name, asn, got, listen)
		}
	}
	if listen < 0 {
		t.Fatalf("%s: no active slot but own transmit cells in %d slots", name, span)
	}
}
