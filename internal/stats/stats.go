// Package stats provides the statistical machinery of the paper's
// analysis sections: the Herfindahl–Hirschman Index for provider
// diversification (§7.2), summary and box-plot statistics (Fig. 11),
// ordinary least squares with standard errors, confidence intervals
// and p-values (Appendix E, Fig. 12), variance inflation factors
// (Table 7), and variable standardization.
package stats

import (
	"errors"
	"math"
	"sort"
)

// HHI computes the Herfindahl–Hirschman Index of a share vector. The
// input need not be normalized; zero input yields zero.
func HHI(shares []float64) float64 {
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum <= 0 {
		return 0
	}
	var h float64
	for _, s := range shares {
		f := s / sum
		h += f * f
	}
	return h
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Standardize transforms xs to zero mean and unit standard deviation
// in place-free fashion (returns a new slice). Constant columns come
// back as all zeros.
func Standardize(xs []float64) []float64 {
	m, sd := Mean(xs), StdDev(xs)
	out := make([]float64, len(xs))
	if sd == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / sd
	}
	return out
}

// Pearson computes the Pearson correlation coefficient of two
// equal-length samples (0 for degenerate inputs).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman computes the Spearman rank correlation (average ranks for
// ties).
func Spearman(xs, ys []float64) float64 {
	return Pearson(ranks(xs), ranks(ys))
}

func ranks(xs []float64) []float64 {
	type iv struct {
		i int
		v float64
	}
	s := make([]iv, len(xs))
	for i, v := range xs {
		s[i] = iv{i, v}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	out := make([]float64, len(xs))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j].v == s[i].v {
			j++
		}
		avg := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			out[s[k].i] = avg
		}
		i = j
	}
	return out
}

// ErrTooFewObservations reports an under-determined regression.
var ErrTooFewObservations = errors.New("stats: more parameters than observations")

// OLSResult carries the fitted model of Appendix E.
type OLSResult struct {
	Names  []string  // coefficient names, intercept first
	Coef   []float64 // point estimates
	StdErr []float64
	CILow  []float64 // 95 % confidence interval bounds
	CIHigh []float64
	TStat  []float64
	PValue []float64 // two-sided, normal approximation with t refinement
	R2     float64
	AdjR2  float64
	N      int
	DF     int
}

// OLS fits y = α + Xβ by ordinary least squares. X is observations ×
// predictors; names labels the predictors.
//
// The solve runs on the normal equations: G = [1 X]ᵀ[1 X] is SPD for
// a full-rank design, so a single in-place Cholesky factorization
// yields β by triangular substitution and the standard errors from
// the diagonal of G⁻¹, without materializing the design matrix, its
// transpose or an explicit inverse. A rank-deficient design, one whose
// factorization meets a pivot at or below 1e-12, reports ErrSingular.
func OLS(y []float64, X *Matrix, names []string) (*OLSResult, error) {
	n := len(y)
	if X.Rows != n {
		return nil, errors.New("stats: X/y length mismatch")
	}
	k := X.Cols + 1 // intercept
	if n <= k {
		return nil, ErrTooFewObservations
	}
	// One scratch block: Gram (k×k), β (solved in place over [1 X]ᵀy),
	// G⁻¹ diagonal, and a substitution column.
	buf := make([]float64, k*k+3*k)
	g := buf[:k*k]
	beta := buf[k*k : k*k+k]
	gdiag := buf[k*k+k : k*k+2*k]
	col := buf[k*k+2*k:]
	normalEquations(y, X, g, beta)
	if err := cholesky(g, k); err != nil {
		return nil, err
	}
	choleskySolve(g, k, beta)
	choleskyInvDiag(g, k, gdiag, col)

	// Residuals and fit quality, fitted values straight from X's rows.
	var rss, tss float64
	ybar := Mean(y)
	for i := 0; i < n; i++ {
		f := beta[0]
		for j, xj := range X.Data[i*X.Cols : (i+1)*X.Cols] {
			f += beta[j+1] * xj
		}
		e := y[i] - f
		rss += e * e
		t := y[i] - ybar
		tss += t * t
	}
	df := n - k
	sigma2 := rss / float64(df)

	res := &OLSResult{
		Names:  append(append(make([]string, 0, k), "(intercept)"), names...),
		Coef:   beta,
		StdErr: make([]float64, 0, k),
		CILow:  make([]float64, 0, k),
		CIHigh: make([]float64, 0, k),
		TStat:  make([]float64, 0, k),
		PValue: make([]float64, 0, k),
		N:      n,
		DF:     df,
	}
	if tss > 0 {
		res.R2 = 1 - rss/tss
		res.AdjR2 = 1 - (1-res.R2)*float64(n-1)/float64(df)
	}
	tcrit := tCritical95(df)
	for j := 0; j < k; j++ {
		se := math.Sqrt(sigma2 * gdiag[j])
		res.StdErr = append(res.StdErr, se)
		var t float64
		if se > 0 {
			t = beta[j] / se
		}
		res.TStat = append(res.TStat, t)
		res.CILow = append(res.CILow, beta[j]-tcrit*se)
		res.CIHigh = append(res.CIHigh, beta[j]+tcrit*se)
		res.PValue = append(res.PValue, twoSidedP(t, df))
	}
	return res, nil
}

// VIF computes the variance inflation factor of each column of X by
// regressing it on the remaining columns (Table 7).
//
// One Cholesky factorization of the full augmented Gram serves every
// per-column regression: by the partitioned-inverse identity,
// (G⁻¹)_{j+1,j+1} = 1/RSS_j for the regression of column j on the
// intercept and the remaining columns, so VIF_j = 1/(1-R²_j) =
// TSS_j · (G⁻¹)_{j+1,j+1} with TSS_j the centered sum of squares of
// column j. A singular Gram — exactly collinear or constant columns —
// falls back to the explicit per-column loop, preserving the
// historical edge-case semantics (errors, +Inf, VIF 1 for constant
// columns).
func VIF(X *Matrix) ([]float64, error) {
	if X.Cols >= 1 && X.Rows > X.Cols+1 {
		if out, ok := vifShared(X); ok {
			return out, nil
		}
	}
	return vifPerColumn(X)
}

// vifShared is the fast path: all VIFs from one factorization of the
// augmented Gram. It declines (ok=false) when the Gram is singular.
func vifShared(X *Matrix) ([]float64, bool) {
	n, k := X.Rows, X.Cols+1
	buf := make([]float64, k*k+2*k)
	g := buf[:k*k]
	diag := buf[k*k : k*k+k]
	col := buf[k*k+k:]
	normalEquations(nil, X, g, nil)
	if err := cholesky(g, k); err != nil {
		return nil, false
	}
	choleskyInvDiag(g, k, diag, col)
	out := make([]float64, X.Cols)
	for j := 0; j < X.Cols; j++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += X.At(i, j)
		}
		mean := sum / float64(n)
		var tss float64
		for i := 0; i < n; i++ {
			d := X.At(i, j) - mean
			tss += d * d
		}
		out[j] = tss * diag[j+1]
	}
	return out, true
}

// vifPerColumn is the pre-shared-decomposition loop: regress each
// column on the others with a fresh OLS. Kept as the fallback for
// degenerate designs.
func vifPerColumn(X *Matrix) ([]float64, error) {
	out := make([]float64, X.Cols)
	for j := 0; j < X.Cols; j++ {
		y := make([]float64, X.Rows)
		sub := NewMatrix(X.Rows, X.Cols-1)
		for i := 0; i < X.Rows; i++ {
			y[i] = X.At(i, j)
			cc := 0
			for c := 0; c < X.Cols; c++ {
				if c == j {
					continue
				}
				sub.Set(i, cc, X.At(i, c))
				cc++
			}
		}
		names := make([]string, sub.Cols)
		res, err := OLS(y, sub, names)
		if err != nil {
			return nil, err
		}
		r2 := res.R2
		if r2 >= 1 {
			out[j] = math.Inf(1)
		} else {
			out[j] = 1 / (1 - r2)
		}
	}
	return out, nil
}

// tCritical95 approximates the two-sided 97.5 % Student-t quantile.
func tCritical95(df int) float64 {
	// Exact-enough table for small df, asymptote 1.96 beyond.
	table := map[int]float64{
		1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
		6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
		12: 2.179, 15: 2.131, 20: 2.086, 25: 2.060, 30: 2.042,
		40: 2.021, 50: 2.009, 60: 2.000, 80: 1.990, 100: 1.984,
	}
	if v, ok := table[df]; ok {
		return v
	}
	keys := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20, 25, 30, 40, 50, 60, 80, 100}
	prev := keys[0]
	for _, k := range keys {
		if df < k {
			return table[prev]
		}
		prev = k
	}
	return 1.96
}

// twoSidedP computes the two-sided p-value of a t statistic using the
// regularized incomplete beta function.
func twoSidedP(t float64, df int) float64 {
	if df <= 0 {
		return 1
	}
	x := float64(df) / (float64(df) + t*t)
	p := incBeta(float64(df)/2, 0.5, x)
	if p > 1 {
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// incBeta computes the regularized incomplete beta function I_x(a, b)
// by continued fraction (Numerical Recipes style).
func incBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const maxIter = 200
	const eps = 3e-14
	const fpmin = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
