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

func TestProjectOffsetsOwnStridesAreFlatIndices(t *testing.T) {
	s, err := newShape([]int32{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	off := make([]int32, s.size)
	projectOffsets(s.dims, s.strides, off)
	for flat, o := range off {
		if int(o) != flat {
			t.Fatalf("cell %d: offset %d", flat, o)
		}
	}
}

func TestProjectOffsetsCrossSpace(t *testing.T) {
	// Projecting a small table into a larger table's stride space: each
	// offset must equal the dot product of the cell's coordinates with
	// the output strides.
	small, err := newShape([]int32{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	big, err := newShape([]int32{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	off := make([]int32, small.size)
	projectOffsets(small.dims, big.strides, off)
	for flat, o := range off {
		if want := projectByDivision(small, big.strides, flat); o != want {
			t.Fatalf("cell %d: offset %d, want %d", flat, o, want)
		}
	}
}

func TestQuickProjectOffsets(t *testing.T) {
	f := func(d1, d2, d3, d4 uint8) bool {
		dims := []int32{1 + int32(d1%4), 1 + int32(d2%4), 1 + int32(d3%4), 1 + int32(d4%4)}
		s, err := newShape(dims)
		if err != nil {
			return false
		}
		// Output space: every field one wider than the input's.
		wide := make([]int32, len(dims))
		for f := range dims {
			wide[f] = dims[f] + 1
		}
		o, err := newShape(wide)
		if err != nil {
			return false
		}
		off := make([]int32, s.size)
		projectOffsets(s.dims, o.strides, off)
		for flat, got := range off {
			if got != projectByDivision(s, o.strides, flat) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// projectByDivision is the reference for projectOffsets: it decomposes
// flat into coordinates by division and dots them with ostr.
func projectByDivision(s shape, ostr []int32, flat int) int32 {
	rem, out := int32(flat), int32(0)
	for f := range s.dims {
		out += rem / s.strides[f] * ostr[f]
		rem %= s.strides[f]
	}
	return out
}

// newShape is fillShape with freshly allocated stride storage.
func newShape(dims []int32) (shape, error) {
	return fillShape(dims, make([]int32, len(dims)))
}
