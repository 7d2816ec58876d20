package earthsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/threaded"
)

// TestCancelOneNode: cancelling the run context stops a one-node run —
// one shard running the whole simulation in a single window, so only the
// in-window checks can see the cancellation — promptly with ErrCanceled, on
// a guest that would otherwise loop forever in simulated time.
func TestCancelOneNode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	m := New(loopProg(), DefaultConfig(1)).SetContext(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := m.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
}

// TestCancelSharded: a multi-shard run driven by several workers observes
// cancellation too, both at the coordinator barrier and inside shard
// windows.
func TestCancelSharded(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	cfg := DefaultConfig(4)
	cfg.SimWorkers = 2
	m := New(loopProg(), cfg).SetContext(ctx)
	if len(m.sh) < 2 {
		t.Fatal("4 nodes must yield several shards")
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sharded run did not stop after cancellation")
	}
}

// TestCancelAlreadyDone: a context cancelled before Run stops the machine
// on the first check without meaningful work.
func TestCancelAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(loopProg(), DefaultConfig(1)).SetContext(ctx).Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestNilContextUnchanged: without SetContext a normal program completes
// exactly as before (the zero-cost guard for the cancellation hooks).
func TestNilContextUnchanged(t *testing.T) {
	prog := &threaded.Program{
		Funcs: map[string]*threaded.FnCode{"main": {Name: "main", NSlots: 1,
			Code: []threaded.Instr{{Op: threaded.OpRet, A: -1}}}},
	}
	prog.Main = prog.Funcs["main"]
	if _, err := New(prog, DefaultConfig(1)).Run(); err != nil {
		t.Fatal(err)
	}
}
