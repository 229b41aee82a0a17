// Package networks constructs the five macrochip interconnect models (plus
// the two-phase ALT variant) by name, as the harness and CLI tools need.
package networks

import (
	"fmt"

	"macrochip/internal/core"
	"macrochip/internal/networks/circuit"
	"macrochip/internal/networks/limited"
	"macrochip/internal/networks/ptp"
	"macrochip/internal/networks/tokenring"
	"macrochip/internal/networks/twophase"
	"macrochip/internal/sim"
)

// Kind names one of the evaluated network architectures.
type Kind string

// The six evaluated designs (paper figures 6–10).
const (
	TokenRing       Kind = "token-ring"
	CircuitSwitched Kind = "circuit-switched"
	PointToPoint    Kind = "point-to-point"
	LimitedPtP      Kind = "limited-point-to-point"
	TwoPhase        Kind = "two-phase"
	TwoPhaseALT     Kind = "two-phase-alt"
)

// Five returns the five architectures of the figure-6 study, in the paper's
// legend order.
func Five() []Kind {
	return []Kind{TokenRing, CircuitSwitched, PointToPoint, LimitedPtP, TwoPhase}
}

// Six returns all designs including the two-phase ALT variant, in the order
// of the figure-7/8/10 legends.
func Six() []Kind {
	return []Kind{TokenRing, CircuitSwitched, PointToPoint, LimitedPtP, TwoPhase, TwoPhaseALT}
}

// New constructs the named network bound to the engine and statistics sink.
func New(kind Kind, eng *sim.Engine, p core.Params, stats *core.Stats) (core.Network, error) {
	switch kind {
	case TokenRing:
		return tokenring.New(eng, p, stats), nil
	case CircuitSwitched:
		return circuit.New(eng, p, stats), nil
	case PointToPoint:
		return ptp.New(eng, p, stats), nil
	case LimitedPtP:
		return limited.New(eng, p, stats), nil
	case TwoPhase:
		return twophase.New(eng, p, stats), nil
	case TwoPhaseALT:
		return twophase.NewALT(eng, p, stats), nil
	}
	return nil, fmt.Errorf("networks: unknown kind %q", kind)
}

// MustNew is New for static kinds in tests and examples.
func MustNew(kind Kind, eng *sim.Engine, p core.Params, stats *core.Stats) core.Network {
	n, err := New(kind, eng, p, stats)
	if err != nil {
		panic(err)
	}
	return n
}
