// Package phy models the IEEE 802.15.4 physical layer used by the DiGS
// reproduction: log-distance path loss with per-link shadowing, an
// RSS-to-packet-reception-rate link curve, the 16 channels of the 2.4 GHz
// band, and the CC2420 radio energy accounting the paper's power metrics
// are based on.
//
// All signal strengths are in dBm and all powers in mW unless a name says
// otherwise.
package phy

import (
	"math"
)

// Radio and propagation constants. The propagation defaults reproduce a
// dense indoor office deployment (TelosB testbeds); the radio constants
// come from the CC2420 datasheet referenced by the paper.
const (
	// TxPowerDBm is the default transmission power (CC2420 at 0 dBm).
	TxPowerDBm = 0.0

	// SensitivityDBm is the receive sensitivity floor. Frames arriving
	// below it are never detected.
	SensitivityDBm = -94.0

	// NoiseFloorDBm is the thermal noise floor for SIR computations.
	NoiseFloorDBm = -98.0

	// CaptureThresholdDB is the minimum signal-to-interference ratio for
	// the strongest frame in a collision to survive (capture effect).
	CaptureThresholdDB = 3.0

	// ReferenceLossDBm is the path loss at the reference distance of 1 m.
	ReferenceLossDBm = 40.0

	// PathLossExponent is the indoor log-distance exponent.
	PathLossExponent = 3.0

	// FloorAttenuationDB is the extra attenuation per building floor
	// between transmitter and receiver (Testbed B spans two floors).
	FloorAttenuationDB = 12.0
)

// PathLossDB returns the deterministic log-distance path loss for a link of
// the given length in metres crossing the given number of floors.
func PathLossDB(distanceM float64, floors int) float64 {
	if distanceM < 1.0 {
		distanceM = 1.0
	}
	loss := ReferenceLossDBm + 10.0*PathLossExponent*math.Log10(distanceM)
	loss += float64(floors) * FloorAttenuationDB
	return loss
}

// RSS returns the received signal strength for a transmission at txPowerDBm
// over a link with the given path loss and static shadowing term.
func RSS(txPowerDBm, pathLossDB, shadowingDB float64) float64 {
	return txPowerDBm - pathLossDB + shadowingDB
}

// PRR maps received signal strength to packet reception rate. The curve is
// a logistic fit to the CC2420 PRR-vs-RSS transition region: links above
// about -87 dBm are near-perfect, links below about -92 dBm are dead, and
// the grey region in between produces the intermediate-quality links that
// drive ETX above 1.
func PRR(rssDBm float64) float64 {
	if rssDBm < SensitivityDBm {
		return 0
	}
	if rssDBm >= prrSaturatedDBm {
		return 1
	}
	p := 1.0 / (1.0 + math.Exp(-(rssDBm+89.5)/1.1))
	switch {
	case p > 0.9999:
		return 1.0
	case p < 0.0001:
		return 0.0
	default:
		return p
	}
}

// prrSaturatedDBm is where PRR's logistic has already rounded to 1: at -79
// dBm exp(-9.55) ≈ 7e-5, so the curve is above 0.9999 there and everywhere
// stronger, and PRR returns 1 without evaluating it.
const prrSaturatedDBm = -79.0

// LinkETX converts a packet reception rate into the expected transmission
// count for the link, assuming independent ACK loss at the same rate as
// data loss. A dead link reports ETXUnreachable.
func LinkETX(prr float64) float64 {
	if prr <= 0.01 {
		return ETXUnreachable
	}
	etx := 1.0 / (prr * prr)
	if etx > ETXUnreachable {
		return ETXUnreachable
	}
	return etx
}

// ETXUnreachable is the ETX value used for links that cannot carry traffic.
const ETXUnreachable = 16.0

// mwFromDBm converts dBm to milliwatts.
func mwFromDBm(dbm float64) float64 {
	return math.Pow(10, dbm/10)
}

// dbmFromMW converts milliwatts to dBm.
func dbmFromMW(mw float64) float64 {
	if mw <= 0 {
		return -math.MaxFloat64
	}
	return 10 * math.Log10(mw)
}

// The noise floor in milliwatts, and that sum's dBm when nothing else is on
// the air: SIRdB's two conversions of the floor, made once with the same
// expressions, so every answer keeps its bits. The slot loop decides every
// detection and every ACK through SIRdB, mostly with no interferer.
var (
	noiseFloorMW = mwFromDBm(NoiseFloorDBm)
	noiseOnlyDBm = dbmFromMW(noiseFloorMW)
)

// Captures reports whether a signal received at signalDBm survives the given
// interferers: exactly SIRdB(signalDBm, interferersDBm) >= CaptureThresholdDB,
// decided without a power conversion when two bounds settle it. The noise
// floor and the interferers add up to more than the strongest of them alone
// and to at most n+1 times the strongest of all, so
//
//	signal - max(strongest, noise) - 10·log10(n+1) <= SIR < signal - strongest.
//
// Either bound decides when it clears the threshold by boundMarginDB, far
// more than SIRdB's rounding error on powers within boundRangeDBm; anything
// else — a close call, a power outside that range, a NaN — is computed.
func Captures(signalDBm float64, interferersDBm []float64) bool {
	if strongest, ok := strongestWithin(signalDBm, interferersDBm); ok {
		if signalDBm-strongest < CaptureThresholdDB-boundMarginDB {
			return false
		}
		n := float64(len(interferersDBm))
		if signalDBm-max(strongest, NoiseFloorDBm)-10*math.Log10(n+1) >= CaptureThresholdDB+boundMarginDB {
			return true
		}
	}
	return SIRdB(signalDBm, interferersDBm) >= CaptureThresholdDB
}

// strongestWithin returns the strongest interferer; ok is false when there
// is none, or when a power, the signal's included, lies outside
// ±boundRangeDBm (a NaN does too).
func strongestWithin(signalDBm float64, interferersDBm []float64) (strongest float64, ok bool) {
	within := func(p float64) bool { return p >= -boundRangeDBm && p <= boundRangeDBm }
	if len(interferersDBm) == 0 || !within(signalDBm) {
		return 0, false
	}
	strongest = math.Inf(-1)
	for _, i := range interferersDBm {
		if !within(i) {
			return 0, false
		}
		strongest = max(strongest, i)
	}
	return strongest, true
}

// Captures' bounds are trusted only on powers within ±boundRangeDBm, where
// SIRdB's conversions err by less than 1e-12 dB, and only when they clear
// the threshold by boundMarginDB.
const (
	boundRangeDBm = 300.0
	boundMarginDB = 1e-9
)

// SIRdB returns the signal-to-interference-plus-noise ratio in dB for a
// signal received at signalDBm against the given interferer powers.
func SIRdB(signalDBm float64, interferersDBm []float64) float64 {
	if len(interferersDBm) == 0 {
		return signalDBm - noiseOnlyDBm
	}
	total := noiseFloorMW
	for _, i := range interferersDBm {
		total += mwFromDBm(i)
	}
	return signalDBm - dbmFromMW(total)
}
