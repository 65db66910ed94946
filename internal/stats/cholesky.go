package stats

import "math"

// This file is the Cholesky path behind OLS and VIF (Fig. 12,
// Table 7). The normal-equations Gram matrix G = [1 X]ᵀ[1 X] is
// symmetric positive definite whenever the design has full column
// rank, so one in-place Cholesky factorization is the whole solve: β
// comes from two triangular substitutions and the standard errors
// from the diagonal of G⁻¹ recovered column-by-column from L⁻¹. Everything works on one
// flat scratch block; nothing here materializes the design matrix or
// its transpose.

// normalEquations accumulates the lower triangle of the augmented
// Gram matrix G = [1 X]ᵀ[1 X] into g (k×k row-major, k = X.Cols+1)
// and, when y is non-nil, [1 X]ᵀy into xty (length k). Both outputs
// must arrive zeroed.
func normalEquations(y []float64, X *Matrix, g, xty []float64) {
	n, k := X.Rows, X.Cols+1
	g[0] = float64(n)
	for i := 0; i < n; i++ {
		row := X.Data[i*X.Cols : (i+1)*X.Cols]
		if y != nil {
			yi := y[i]
			xty[0] += yi
			for j, xj := range row {
				xty[j+1] += xj * yi
			}
		}
		for j, xj := range row {
			grow := g[(j+1)*k : (j+2)*k]
			grow[0] += xj // intercept column
			for l := 0; l <= j; l++ {
				grow[l+1] += xj * row[l]
			}
		}
	}
}

// cholesky factors the SPD matrix in g (k×k row-major, lower triangle
// populated) in place into its lower-triangular Cholesky factor L.
// A pivot at or below 1e-12 reports ErrSingular.
func cholesky(g []float64, k int) error {
	for j := 0; j < k; j++ {
		d := g[j*k+j]
		for p := 0; p < j; p++ {
			l := g[j*k+p]
			d -= l * l
		}
		if d <= 1e-12 {
			return ErrSingular
		}
		d = math.Sqrt(d)
		g[j*k+j] = d
		for i := j + 1; i < k; i++ {
			s := g[i*k+j]
			irow := g[i*k : i*k+j]
			jrow := g[j*k : j*k+j]
			for p := range jrow {
				s -= irow[p] * jrow[p]
			}
			g[i*k+j] = s / d
		}
	}
	return nil
}

// choleskySolve solves L Lᵀ x = b in place given the factor produced
// by cholesky, by forward then backward substitution.
func choleskySolve(l []float64, k int, b []float64) {
	for i := 0; i < k; i++ {
		s := b[i]
		for p := 0; p < i; p++ {
			s -= l[i*k+p] * b[p]
		}
		b[i] = s / l[i*k+i]
	}
	for i := k - 1; i >= 0; i-- {
		s := b[i]
		for p := i + 1; p < k; p++ {
			s -= l[p*k+i] * b[p]
		}
		b[i] = s / l[i*k+i]
	}
}

// choleskyInvDiag writes the diagonal of (L Lᵀ)⁻¹ into diag, using
// col (length k) as substitution scratch: column j of L⁻¹ comes from
// forward substitution against e_j, and (G⁻¹)_jj is that column's
// squared norm since G⁻¹ = L⁻ᵀ L⁻¹.
func choleskyInvDiag(l []float64, k int, diag, col []float64) {
	for j := 0; j < k; j++ {
		for i := j; i < k; i++ {
			var s float64
			if i == j {
				s = 1
			}
			for p := j; p < i; p++ {
				s -= l[i*k+p] * col[p]
			}
			col[i] = s / l[i*k+i]
		}
		var v float64
		for i := j; i < k; i++ {
			v += col[i] * col[i]
		}
		diag[j] = v
	}
}
