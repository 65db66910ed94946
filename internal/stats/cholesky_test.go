package stats

import (
	"math"
	"math/rand"
	"testing"
)

// olsFixture builds a well-conditioned 61×6 regression problem shaped
// like the Fig. 12 panel (61 countries, 6 standardized predictors).
func olsFixture() ([]float64, *Matrix, []string) {
	r := rand.New(rand.NewSource(7))
	n, p := 61, 6
	X := NewMatrix(n, p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			X.Set(i, j, r.NormFloat64())
		}
		y[i] = 1.5 + 2*X.At(i, 0) - 0.5*X.At(i, 3) + 0.1*r.NormFloat64()
	}
	return y, X, []string{"a", "b", "c", "d", "e", "f"}
}

// TestOLSMatchesInverseBasedSolve pins the Cholesky solve to the
// Gauss–Jordan reference: β = (DᵀD)⁻¹Dᵀy must agree with OLS to
// round-off, and so must the standard errors via the inverse diagonal.
func TestOLSMatchesInverseBasedSolve(t *testing.T) {
	y, X, names := olsFixture()
	res, err := OLS(y, X, names)
	if err != nil {
		t.Fatal(err)
	}

	n, k := X.Rows, X.Cols+1
	d := NewMatrix(n, k)
	for i := 0; i < n; i++ {
		d.Set(i, 0, 1)
		for j := 0; j < X.Cols; j++ {
			d.Set(i, j+1, X.At(i, j))
		}
	}
	dt := transpose(d)
	xtx, err := mul(dt, d)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := inverse(xtx)
	if err != nil {
		t.Fatal(err)
	}
	xty, err := mulVec(dt, y)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := mulVec(inv, xty)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		if diff := math.Abs(res.Coef[j] - beta[j]); diff > 1e-9 {
			t.Errorf("coef[%d]: cholesky %g vs inverse %g", j, res.Coef[j], beta[j])
		}
	}
	// Standard errors against sigma² · diag((DᵀD)⁻¹).
	var rss float64
	fitted, _ := mulVec(d, beta)
	for i := range y {
		e := y[i] - fitted[i]
		rss += e * e
	}
	sigma2 := rss / float64(n-k)
	for j := 0; j < k; j++ {
		want := math.Sqrt(sigma2 * inv.At(j, j))
		if diff := math.Abs(res.StdErr[j] - want); diff > 1e-9*math.Max(want, 1) {
			t.Errorf("stderr[%d]: cholesky %g vs inverse %g", j, res.StdErr[j], want)
		}
	}
}

// TestVIFSharedMatchesPerColumn pins the shared-decomposition VIF to
// the per-column fallback on the same panel.
func TestVIFSharedMatchesPerColumn(t *testing.T) {
	_, X, _ := olsFixture()
	fast, err := VIF(X)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := vifPerColumn(X)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(slow) {
		t.Fatalf("length mismatch: %d vs %d", len(fast), len(slow))
	}
	for j := range fast {
		if diff := math.Abs(fast[j] - slow[j]); diff > 1e-8*math.Max(slow[j], 1) {
			t.Errorf("vif[%d]: shared %g vs per-column %g", j, fast[j], slow[j])
		}
	}
}

// TestVIFConstantColumnFallsBack keeps the historical edge semantics:
// a constant column makes the augmented Gram singular, so VIF must
// take the per-column path — which reports ErrSingular, because the
// constant column plus the intercept makes every sub-design
// rank-deficient, exactly as the inverse-based loop always did.
func TestVIFConstantColumnFallsBack(t *testing.T) {
	_, X, _ := olsFixture()
	for i := 0; i < X.Rows; i++ {
		X.Set(i, 2, 3.25)
	}
	if _, err := VIF(X); err != ErrSingular {
		t.Fatalf("constant column: got err %v, want ErrSingular", err)
	}
}

// TestVIFSingleConstantColumn: with no other regressors the constant
// column regresses on the intercept alone — a degenerate but
// well-posed fit whose R² is 0, so VIF is 1 (historical behaviour).
func TestVIFSingleConstantColumn(t *testing.T) {
	X := NewMatrix(5, 1)
	for i := 0; i < 5; i++ {
		X.Set(i, 0, 2.5)
	}
	vifs, err := VIF(X)
	if err != nil {
		t.Fatal(err)
	}
	if vifs[0] != 1 {
		t.Fatalf("single constant column VIF = %g, want 1", vifs[0])
	}
}

// TestOLSAllocationBudget is the allocation-count regression test for
// the OLS hot path: one scratch block plus the result slices. The
// budget has headroom over the measured count but sits far below the
// retired inverse-based path (which allocated a design matrix, its
// transpose, and Gauss–Jordan augmentation per call).
func TestOLSAllocationBudget(t *testing.T) {
	y, X, names := olsFixture()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := OLS(y, X, names); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("OLS allocates %.0f objects per call, budget 12", allocs)
	}
}

// TestVIFAllocationBudget pins the shared-decomposition VIF path the
// same way: one factorization, one scratch block, one result slice.
func TestVIFAllocationBudget(t *testing.T) {
	_, X, _ := olsFixture()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := VIF(X); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("VIF allocates %.0f objects per call, budget 4", allocs)
	}
}
