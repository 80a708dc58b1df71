package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/chain"
)

// cancelConfig is a run big enough that it cannot finish before the test
// cancels it: a wide population with a slot count in the millions. The
// population exceeds the columnar engine's cohort width after sharding,
// so its shards hold more than one cohort.
func cancelConfig(engine Engine) Config {
	cfg := baseConfig(chain.TwoDimExact, 0.1, 0.02, 2, 2)
	cfg.Terminals = 10_000
	cfg.Engine = engine
	return cfg
}

// TestRunShardedCtxCancelPrompt checks the service-layer contract every
// engine must honour: cancelling the context of an in-flight run makes
// RunShardedCtx return ctx.Err() promptly — well inside the 2-second
// bound pcnserve promises for job cancellation — instead of running to
// completion. For the columnar engine the population spans multiple
// cohorts, so cancellation must be observed mid-batch, without waiting
// for the cohort walk to finish the slot batch.
func TestRunShardedCtxCancelPrompt(t *testing.T) {
	for _, engine := range []Engine{EngineDES, EngineCols} {
		t.Run(engine.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type res struct {
				m   *Metrics
				err error
			}
			ch := make(chan res, 1)
			go func() {
				m, err := RunShardedCtx(ctx, cancelConfig(engine), 2_000_000, 2)
				ch <- res{m, err}
			}()
			time.Sleep(50 * time.Millisecond)
			cancel()
			select {
			case r := <-ch:
				if !errors.Is(r.err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", r.err)
				}
				if r.m != nil {
					t.Fatal("cancelled run returned metrics")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("cancelled run did not return within 2s")
			}
		})
	}
}

// TestRunShardedCtxDeadline checks that an already-expired deadline stops
// the run before any shard work happens.
func TestRunShardedCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunShardedCtx(ctx, cancelConfig(EngineCols), 1_000, 2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunShardedCtxBackgroundIdentical checks that the context plumbing
// never perturbs a run that completes: RunShardedCtx with a cancellable
// (but never cancelled) context is bit-identical to RunSharded.
func TestRunShardedCtxBackgroundIdentical(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.15, 0.03, 2, 2)
	cfg.Terminals = 40
	cfg.Telemetry.SnapshotEvery = 500
	want, err := RunSharded(cfg, 2_000, 4)
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RunShardedCtx(ctx, cfg, 2_000, 4)
	if err != nil {
		t.Fatalf("RunShardedCtx: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("RunShardedCtx with a live context diverged from RunSharded")
	}
}
