package serve

import (
	"errors"
	"fmt"
)

// errWritesSaturated and errRefreshLagging are the two admission-control
// rejections; the HTTP layer maps both to 429 with a Retry-After hint.
var (
	// errWritesSaturated reports the per-tenant in-flight write bound hit.
	errWritesSaturated = errors.New("serve: tenant write concurrency saturated")
	// errRefreshLagging reports the write rate outrunning rank refresh.
	errRefreshLagging = errors.New("serve: tenant writes outrunning rank refresh")
)

// admission is one tenant's write admission controller. It bounds two
// things independently:
//
//   - In-flight writes: at most maxInflight observe/observebatch requests
//     may hold the tenant's write path at once (a semaphore with
//     non-blocking acquire — saturation is reported, never queued, so a
//     slow engine surfaces as 429 backpressure instead of unbounded
//     goroutine pileup).
//   - Refresh lag: when maxLag > 0, a write is rejected while the tenant's
//     write generation has run maxLag or more answers ahead of the highest
//     generation a rank was served at (the engine's ServedGeneration).
//     Writes advance the generation and ranks chase it; without the bound,
//     a pure-write flood makes every subsequent rank re-solve an
//     ever-larger change. The bound converts that into client backpressure
//     until a rank (any reader's, the writer's own, or a background
//     refresh) catches the watermark up.
//
// The zero value admits everything; build with newAdmission.
type admission struct {
	slots  chan struct{} // buffered semaphore; nil = unbounded
	maxLag uint64        // 0 = unbounded
}

// newAdmission builds an admission controller with the given bounds; zero
// or negative values leave the corresponding bound off.
func newAdmission(maxInflight int, maxLag int) admission {
	a := admission{}
	if maxInflight > 0 {
		a.slots = make(chan struct{}, maxInflight)
	}
	if maxLag > 0 {
		a.maxLag = uint64(maxLag)
	}
	return a
}

// acquire admits one write. lag reports the tenant's write generation and
// served generation; it is called only when the lag bound is on. On
// success the caller must release(); on failure it returns one of the
// sentinel rejections, wrapped with the live numbers for the client error
// body.
func (a *admission) acquire(lag func() (gen, served uint64)) (release func(), err error) {
	if a.maxLag > 0 {
		if gen, served := lag(); gen >= served && gen-served >= a.maxLag {
			return nil, fmt.Errorf("%w: generation %d is %d answers ahead of the last served rank at %d (max %d); rank the tenant to catch up",
				errRefreshLagging, gen, gen-served, served, a.maxLag)
		}
	}
	if a.slots == nil {
		return func() {}, nil
	}
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots }, nil
	default:
		return nil, fmt.Errorf("%w: %d writes already in flight", errWritesSaturated, cap(a.slots))
	}
}
