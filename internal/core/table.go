package core

import "fmt"

// maxTableCells bounds the size of any single DP table. The power DP is
// exponential in the number of modes; instances whose tables exceed this
// bound return an error instead of exhausting memory.
const maxTableCells = 1 << 27

// shape describes a dense multi-dimensional DP table in row-major order
// (last field fastest). Dims are exclusive bounds: a field with bound b
// takes values 0..b-1.
type shape struct {
	dims    []int32
	strides []int32
	size    int
}

// fillShape builds the shape of a table with the given dims, writing the
// strides into caller-provided storage so arena allocators can build
// shapes without a heap allocation.
func fillShape(dims, strides []int32) (shape, error) {
	s := shape{dims: dims, strides: strides}
	size := int64(1)
	for i := len(dims) - 1; i >= 0; i-- {
		if dims[i] < 1 {
			return shape{}, fmt.Errorf("core: non-positive table dimension %d", dims[i])
		}
		s.strides[i] = int32(size)
		size *= int64(dims[i])
		if size > maxTableCells {
			return shape{}, fmt.Errorf("core: DP table would need %d+ cells (limit %d); reduce tree size, modes or pre-existing servers", size, maxTableCells)
		}
	}
	s.size = int(size)
	return s, nil
}

// projectOffsets writes into dst (length the product of dims) the
// position of every cell of a row-major table with the given dims in
// another table's stride space: dst[flat] = Σ_f coords_f(flat)·ostr[f].
// It expands one field at a time, back to front within dst, so each
// entry costs one add and no division. Merge kernels precompute these
// offsets once per merge instead of re-deriving them per cell pair.
func projectOffsets(dims, ostr, dst []int32) {
	dst[0] = 0
	n := 1
	for f, d := range dims {
		s := ostr[f]
		for i := n - 1; i >= 0; i-- {
			// Entries below i are still the shorter prefix's offsets:
			// every write here lands at i*d or later, which is >= i.
			base := dst[i]
			row := dst[i*int(d) : (i+1)*int(d)]
			for c := range row {
				row[c] = base + int32(c)*s
			}
		}
		n *= int(d)
	}
}
