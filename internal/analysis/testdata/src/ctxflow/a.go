// Package ctxflow is the fixture for the ctxflow analyzer: the Context
// parameter comes first, context-carrying functions neither mint fresh
// roots nor call blocking module callees that cannot receive the context.
package ctxflow

import (
	"context"
	"time"
)

// Wait blocks on a receive and takes no Context; calls to it from
// context-carrying functions are the rule-3 violation.
func Wait(ch chan int) int {
	return <-ch
}

// WaitCtx is the remediated form — cancellable, context first.
func WaitCtx(ctx context.Context, ch chan int) (int, error) {
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Misplaced takes its Context second — flagged by rule 1.
func Misplaced(n int, ctx context.Context) error { // want `context\.Context is parameter 2 of ctxflow\.Misplaced`
	return ctx.Err()
}

// Detaches mints a fresh root despite already receiving a Context —
// flagged by rule 2: everything downstream silently stops honouring the
// caller's cancellation.
func Detaches(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d) // want `context\.Background inside ctxflow\.Detaches, which already receives a Context`
}

// DetachesSanctioned uses the WithoutCancel idiom — accepted: values still
// flow, only cancellation is severed, and that severing is explicit.
func DetachesSanctioned(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.WithoutCancel(ctx), d)
}

// DropsCtx calls the blocking no-Context helper — flagged by rule 3: the
// wait cannot be cancelled from here.
func DropsCtx(ctx context.Context, ch chan int) int {
	return Wait(ch) // want `ctxflow\.Wait can block \(ctxflow\.Wait -> channel receive \(a\.go:14\)\) but takes no Context`
}

// ThreadsCtx passes the context into the blocking callee — accepted.
func ThreadsCtx(ctx context.Context, ch chan int) (int, error) {
	return WaitCtx(ctx, ch)
}

// CallsPure calls a non-blocking no-Context helper — accepted: nothing to
// cancel.
func CallsPure(ctx context.Context, x int) int {
	return double(x)
}

func double(x int) int { return 2 * x }
