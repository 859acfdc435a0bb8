package multiedge

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/library"
	"repro/internal/manager"
)

// rebuilt returns a version-bumped copy of lib with the entries slice
// copied — the shape the adapt loop's retrainers hand to the pool.
func rebuilt(lib *library.Library) *library.Library {
	c := *lib
	c.Entries = append([]library.Entry(nil), lib.Entries...)
	c.Version = lib.Version + 1
	return &c
}

func emptyInjector(t *testing.T) *fault.Injector {
	t.Helper()
	plan, err := fault.ParsePlan("")
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.NewInjector(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestPoolStaggeredSwap: a library hot-swap with one board
// mid-reconfiguration lands on the free boards immediately, defers on
// the busy one, completes through heartbeat retries, and flips the
// pool's serving version only once every board has adopted it. Until
// then each board serves exactly its own committed version — never a
// half-swapped mix.
func TestPoolStaggeredSwap(t *testing.T) {
	lib := paperLib(t)
	p, err := NewSupervisedPool(lib, Config{Boards: 3, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	p.React(0, 100)
	p.ReconfigSucceeded(0) // commit the initial load on every board

	cand := rebuilt(lib)
	p.boards[1].stallUntil = 5 // board 1 is mid-reconfiguration until t=5

	if p.SwapLibrary(1, cand) {
		t.Fatal("swap reported complete with a board mid-reconfiguration")
	}
	if p.ServingLibrary() != lib {
		t.Fatal("pool flipped its serving version before every board adopted")
	}
	for i, b := range p.boards {
		want := cand
		if i == 1 {
			want = lib
		}
		if b.mgr.Library() != want {
			t.Fatalf("board %d serving version %d mid-swap", i, b.mgr.Library().Version)
		}
	}

	// A heartbeat while the board is still stalled retries but must not
	// force the swap through.
	inj := emptyInjector(t)
	p.Heartbeat(3, inj)
	if p.boards[1].mgr.Library() != lib {
		t.Fatal("stalled board swapped mid-reconfiguration")
	}
	if p.ServingLibrary() != lib {
		t.Fatal("pool flipped before the stalled board adopted")
	}

	// Past the stall the heartbeat retry completes the swap, and the
	// change is surfaced so the edge loop re-reacts.
	if changed := p.Heartbeat(6, inj); !changed {
		t.Fatal("completing heartbeat did not report a change")
	}
	if p.ServingLibrary() != cand {
		t.Fatal("pool did not flip after the last board adopted")
	}
	for i, b := range p.boards {
		if b.mgr.Library() != cand {
			t.Fatalf("board %d missed the swap", i)
		}
	}

	// Re-offering the committed library is trivially complete: every
	// board is already on it.
	if !p.SwapLibrary(7, cand) {
		t.Fatal("re-offer of the committed library refused")
	}
}

// TestPoolSwapShapeGuard: candidates that would invalidate decision
// indices are refused outright and leave no swap pending.
func TestPoolSwapShapeGuard(t *testing.T) {
	lib := paperLib(t)
	p, err := NewSupervisedPool(lib, Config{Boards: 2, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	p.React(0, 100)
	p.ReconfigSucceeded(0)

	if p.SwapLibrary(1, nil) {
		t.Fatal("nil library accepted")
	}
	short := rebuilt(lib)
	short.Entries = short.Entries[:len(short.Entries)-1]
	if p.SwapLibrary(1, short) {
		t.Fatal("entry-count mismatch accepted")
	}
	if p.pendingLib != nil {
		t.Fatal("refused candidate left a swap pending")
	}
	if p.ServingLibrary() != lib {
		t.Fatal("refused swap replaced the serving library")
	}
}
