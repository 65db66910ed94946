package stats

import (
	"fmt"
	"math"
)

// The Gauss–Jordan path OLS solved by before the Cholesky one, kept as
// the oracle for TestOLSMatchesInverseBasedSolve: β = (DᵀD)⁻¹Dᵀy and
// the standard errors from the diagonal of (DᵀD)⁻¹.

// transpose returns mᵀ.
func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// mul returns m · b.
func mul(m, b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("stats: dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		for k, v := range mrow {
			if v == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += v * bv
			}
		}
	}
	return out, nil
}

// mulVec returns m · v for a column vector v.
func mulVec(m *Matrix, v []float64) ([]float64, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("stats: dimension mismatch %dx%d · %d", m.Rows, m.Cols, len(v))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// inverse computes m⁻¹ by Gauss–Jordan elimination with partial
// pivoting.
func inverse(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("stats: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	// Augmented [A | I].
	a := NewMatrix(n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, m.At(i, j))
		}
		a.Set(i, n+i, 1)
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < 2*n; j++ {
				tmp := a.At(col, j)
				a.Set(col, j, a.At(pivot, j))
				a.Set(pivot, j, tmp)
			}
		}
		pv := a.At(col, col)
		for j := 0; j < 2*n; j++ {
			a.Set(col, j, a.At(col, j)/pv)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < 2*n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
			}
		}
	}
	inv := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inv.Set(i, j, a.At(i, n+j))
		}
	}
	return inv, nil
}
