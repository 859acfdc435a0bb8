package experiments

import (
	"reflect"
	"testing"
)

// The harness fan-outs (library warm-up, Fig6 scenario sweep, Fig1b series
// sweep) must produce byte-for-byte the same results at any worker count.
func TestHarnessDeterministicAcrossWorkers(t *testing.T) {
	if err := WarmLibraries(nil); err != nil {
		t.Fatal(err)
	}
	prev := maxWorkers.Set(1)
	f6serial, err := Fig6(7)
	if err != nil {
		maxWorkers.Set(prev)
		t.Fatal(err)
	}
	f1serial, err := Fig1b(3, 7)
	maxWorkers.Set(prev)
	if err != nil {
		t.Fatal(err)
	}

	f6par, err := Fig6(7)
	if err != nil {
		t.Fatal(err)
	}
	f1par, err := Fig1b(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f6serial, f6par) {
		t.Fatal("Fig6 diverged between serial and parallel harness")
	}
	if !reflect.DeepEqual(f1serial, f1par) {
		t.Fatal("Fig1b diverged between serial and parallel harness")
	}
}
