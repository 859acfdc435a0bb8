package parallel

import "testing"

func TestKnobSetGetReset(t *testing.T) {
	k := RegisterKnob("test.basic", 4)
	if got := k.Get(); got != 4 {
		t.Fatalf("initial Get = %d, want 4", got)
	}
	if prev := k.Set(9); prev != 4 {
		t.Fatalf("Set returned prev %d, want 4", prev)
	}
	if got := k.Get(); got != 9 {
		t.Fatalf("Get after Set = %d, want 9", got)
	}
	if prev := k.Set(0); prev != 9 {
		t.Fatalf("reset returned prev %d, want 9", prev)
	}
	if got := k.Get(); got != 4 {
		t.Fatalf("Get after reset = %d, want initial 4", got)
	}
	k.Set(-3)
	if got := k.Get(); got != 4 {
		t.Fatalf("negative Set = %d, want initial 4", got)
	}
}

func TestRegisterKnobIdempotent(t *testing.T) {
	a := RegisterKnob("test.idem", 2)
	a.Set(7)
	b := RegisterKnob("test.idem", 2)
	if a != b {
		t.Fatal("re-registration returned a different knob")
	}
	if got := b.Get(); got != 7 {
		t.Fatalf("re-registration reset value: got %d, want 7", got)
	}
}

func TestRegisterKnobConflictPanics(t *testing.T) {
	RegisterKnob("test.conflict", 3)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different initial did not panic")
		}
	}()
	RegisterKnob("test.conflict", 5)
}

func TestSetAll(t *testing.T) {
	a := RegisterKnob("test.all.a", 8)
	b := RegisterKnob("test.all.b", 1)
	SetAll(3)
	if a.Get() != 3 || b.Get() != 3 {
		t.Fatalf("SetAll(3): got %d, %d", a.Get(), b.Get())
	}
	SetAll(0)
	if a.Get() != 8 {
		t.Fatalf("SetAll(0) reset a to %d, want initial 8", a.Get())
	}
	if b.Get() != 1 {
		t.Fatalf("SetAll(0) reset b to %d, want initial 1", b.Get())
	}
}

func TestKnobInitialFloor(t *testing.T) {
	k := RegisterKnob("test.floor", 0)
	if got := k.Get(); got != 1 {
		t.Fatalf("initial 0 should floor to 1, got %d", got)
	}
}
