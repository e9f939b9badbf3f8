package core

import (
	"testing"
	"testing/quick"
)

func TestNewShapeStrides(t *testing.T) {
	s, err := newShape([]int32{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.size != 60 {
		t.Fatalf("size = %d", s.size)
	}
	want := []int32{20, 5, 1}
	for i := range want {
		if s.strides[i] != want[i] {
			t.Fatalf("strides = %v, want %v", s.strides, want)
		}
	}
}

func TestNewShapeErrors(t *testing.T) {
	if _, err := newShape([]int32{3, 0}); err == nil {
		t.Fatal("zero dimension accepted")
	}
	if _, err := newShape([]int32{1 << 14, 1 << 14, 1 << 14}); err == nil {
		t.Fatal("oversized table accepted")
	}
}

func TestOdometerCoversAllCellsInFlatOrder(t *testing.T) {
	s, err := newShape([]int32{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	o := testOdometer(s.dims, s.strides)
	for flat := 0; flat < s.size; flat++ {
		// With ostr = own strides, o.out must equal the flat index.
		if int(o.out) != flat {
			t.Fatalf("cell %d: out = %d", flat, o.out)
		}
		idx := int32(0)
		for f := range o.coords {
			idx += o.coords[f] * s.strides[f]
		}
		if idx != o.out {
			t.Fatalf("cell %d: coords %v inconsistent", flat, o.coords)
		}
		advanced := o.next()
		if advanced != (flat != s.size-1) {
			t.Fatalf("cell %d: next = %v", flat, advanced)
		}
	}
	// After wrap-around the odometer is back at zero.
	if o.out != 0 {
		t.Fatalf("out after wrap = %d", o.out)
	}
}

func TestOdometerCrossSpacePartialIndex(t *testing.T) {
	// Iterating a small table while projecting into a larger table's
	// stride space: the partial index must equal the dot product of the
	// coordinates with the output strides.
	small, err := newShape([]int32{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := newShape([]int32{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	o := testOdometer(small.dims, big.strides)
	for flat := 0; flat < small.size; flat++ {
		want := o.coords[0]*big.strides[0] + o.coords[1]*big.strides[1]
		if o.out != want {
			t.Fatalf("cell %d: out = %d, want %d", flat, o.out, want)
		}
		o.next()
	}
}

func TestOdometerReset(t *testing.T) {
	s, _ := newShape([]int32{3, 3})
	o := testOdometer(s.dims, s.strides)
	o.next()
	o.next()
	o.reset()
	if o.out != 0 || o.coords[0] != 0 || o.coords[1] != 0 {
		t.Fatalf("reset state: out=%d coords=%v", o.out, o.coords)
	}
}

func TestQuickOdometerConsistency(t *testing.T) {
	f := func(d1, d2, d3 uint8) bool {
		dims := []int32{1 + int32(d1%5), 1 + int32(d2%5), 1 + int32(d3%5)}
		s, err := newShape(dims)
		if err != nil {
			return false
		}
		o := testOdometer(s.dims, s.strides)
		count := 0
		for {
			count++
			if int(o.out) != count-1 {
				return false
			}
			if !o.next() {
				break
			}
		}
		return count == s.size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// testOdometer returns an odometer over dims projecting into the
// outStrides space, positioned at the all-zero cell.
func testOdometer(dims, outStrides []int32) *odometer {
	o := new(odometer)
	o.init(dims, outStrides, make([]int32, len(dims)))
	return o
}

// newShape is fillShape with freshly allocated stride storage.
func newShape(dims []int32) (shape, error) {
	return fillShape(dims, make([]int32, len(dims)))
}
