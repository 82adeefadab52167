package serve

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrShed is returned by acquire when the wait queue is full: the request
// was never admitted and the client should back off and retry (HTTP 429).
var ErrShed = errors.New("serve: overloaded, admission queue full")

// admission is the server's two-stage backpressure valve: a semaphore of
// MaxInflight execution slots, fronted by a bounded count of waiters. A
// request first tries to take a slot without waiting; failing that it joins
// the wait queue — unless the queue is at capacity, in which case it is
// shed immediately with ErrShed rather than piling up unboundedly. Waiters
// respect the request context, so a deadline that expires in the queue
// frees the waiter slot before the request ever executes.
//
// The queue bound is enforced with a compare-and-swap loop (check, then
// increment), so the waiter count never reads above maxQueue, not even
// transiently to waiting() and the gauge it feeds.
type admission struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64

	// Counters mirrored into the telemetry registry by the server.
	admitted  atomic.Int64 // acquired a slot (immediately or after queueing)
	shed      atomic.Int64 // rejected: queue full
	cancelled atomic.Int64 // rejected: context done while queued
}

func newAdmission(maxInflight, maxQueue int) *admission {
	return &admission{
		slots:    make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
	}
}

// acquire claims one execution slot, waiting in the bounded queue when the
// server is saturated. It returns a release func on success; ErrShed when
// the queue is full; the context error when ctx ends first. The release
// func must be called exactly once.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return a.release, nil
	default:
	}
	for {
		q := a.queued.Load()
		if q >= a.maxQueue {
			a.shed.Add(1)
			return nil, ErrShed
		}
		if a.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return a.release, nil
	case <-ctx.Done():
		a.cancelled.Add(1)
		return nil, ctx.Err()
	}
}

func (a *admission) release() { <-a.slots }

// inflight is the number of currently held execution slots.
func (a *admission) inflight() int { return len(a.slots) }

// waiting is the number of requests currently queued for a slot.
func (a *admission) waiting() int { return int(a.queued.Load()) }
