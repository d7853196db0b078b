package cpu

import (
	"math"
	"testing"

	"rdramstream/internal/stream"
)

func TestWalkerNaturalOrder(t *testing.T) {
	k := stream.Daxpy(2, 0, 100, 3, 1)
	w, err := NewWalker(k)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kernel() != k {
		t.Error("Kernel accessor mismatch")
	}
	wantAddrs := []int64{0, 100, 100, 1, 101, 101, 2, 102, 102}
	wantWrite := []bool{false, false, true, false, false, true, false, false, true}
	for i := 0; ; i++ {
		if i < len(wantAddrs) && w.Remaining() != len(wantAddrs)-i {
			t.Errorf("step %d: Remaining = %d, want %d", i, w.Remaining(), len(wantAddrs)-i)
		}
		var a Access
		if !w.Next(&a) {
			if i != len(wantAddrs) {
				t.Fatalf("walker ended after %d accesses, want %d", i, len(wantAddrs))
			}
			break
		}
		if a.Addr != wantAddrs[i] || a.Write != wantWrite[i] {
			t.Fatalf("access %d = %+v, want addr=%d write=%v", i, a, wantAddrs[i], wantWrite[i])
		}
		if !a.Write {
			// x[i] = i+1, y[i] = 10*(i+1)
			var v float64
			if a.Stream == 0 {
				v = float64(a.Elem + 1)
			} else {
				v = 10 * float64(a.Elem+1)
			}
			w.SupplyRead(math.Float64bits(v))
		} else {
			want := 2*float64(a.Elem+1) + 10*float64(a.Elem+1)
			if got := math.Float64frombits(a.Value); got != want {
				t.Errorf("iteration %d store value %v, want %v", a.Elem, got, want)
			}
		}
	}
}

func TestWalkerLazySupply(t *testing.T) {
	// Reads may be supplied any time before the iteration's write is
	// consumed — model a pipelined controller that batches both loads.
	k := stream.Sum(0, 100, 200, 2, 1)
	w, err := NewWalker(k)
	if err != nil {
		t.Fatal(err)
	}
	var a0, a1, st Access
	w.Next(&a0)
	w.Next(&a1)
	if a0.Write || a1.Write {
		t.Fatal("first two accesses should be reads")
	}
	w.SupplyRead(math.Float64bits(3))
	w.SupplyRead(math.Float64bits(4))
	w.Next(&st)
	if !st.Write || math.Float64frombits(st.Value) != 7 {
		t.Fatalf("store = %+v, want value 7", st)
	}
}

func TestWalkerRejectsInvalidKernel(t *testing.T) {
	k := stream.Copy(0, 100, 4, 1)
	k.Compute = nil
	if _, err := NewWalker(k); err == nil {
		t.Error("expected error for invalid kernel")
	}
}

func TestWalkerPanicsOnWriteBeforeSupply(t *testing.T) {
	k := stream.Copy(0, 100, 2, 1)
	w, _ := NewWalker(k)
	var a Access
	w.Next(&a) // read, never supplied
	defer func() {
		if recover() == nil {
			t.Error("expected panic when write consumed before reads supplied")
		}
	}()
	w.Next(&a) // write
}

func TestWalkerPanicsOnOverSupply(t *testing.T) {
	k := stream.Copy(0, 100, 2, 1)
	w, _ := NewWalker(k)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on SupplyRead with nothing outstanding")
		}
	}()
	w.SupplyRead(0)
}

func TestWalkerFullFunctionalAgainstReplay(t *testing.T) {
	// Drive the walker like an in-order controller over a flat memory and
	// compare the final state with the kernel's golden Replay.
	k := stream.Vaxpy(0, 1000, 2000, 50, 1)
	memWalk := map[int64]uint64{}
	memGold := map[int64]uint64{}
	for i := int64(0); i < 50; i++ {
		for _, base := range []int64{0, 1000, 2000} {
			v := math.Float64bits(float64(base/100) + float64(i)*0.5)
			memWalk[base+i] = v
			memGold[base+i] = v
		}
	}

	w, err := NewWalker(k)
	if err != nil {
		t.Fatal(err)
	}
	for {
		var a Access
		if !w.Next(&a) {
			break
		}
		if a.Write {
			memWalk[a.Addr] = a.Value
		} else {
			w.SupplyRead(memWalk[a.Addr])
		}
	}
	k.Replay(
		func(addr int64) uint64 { return memGold[addr] },
		func(addr int64, v uint64) { memGold[addr] = v },
	)
	for addr, want := range memGold {
		if memWalk[addr] != want {
			t.Fatalf("addr %d: walker %x, golden %x", addr, memWalk[addr], want)
		}
	}
}
