package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHHIKnownValues(t *testing.T) {
	if got := HHI([]float64{1}); got != 1 {
		t.Errorf("monopoly HHI = %v, want 1", got)
	}
	if got := HHI([]float64{1, 1, 1, 1}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("uniform-4 HHI = %v, want 0.25", got)
	}
	if got := HHI(nil); got != 0 {
		t.Errorf("empty HHI = %v, want 0", got)
	}
	if got := HHI([]float64{0, 0}); got != 0 {
		t.Errorf("zero HHI = %v, want 0", got)
	}
	// Shares need not be normalized.
	if got := HHI([]float64{50, 50}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("unnormalized HHI = %v, want 0.5", got)
	}
}

func TestHHIBoundsQuick(t *testing.T) {
	f := func(xs [6]uint8) bool {
		shares := make([]float64, 0, 6)
		var sum float64
		for _, x := range xs {
			shares = append(shares, float64(x))
			sum += float64(x)
		}
		h := HHI(shares)
		if sum == 0 {
			return h == 0
		}
		return h >= 1.0/6-1e-9 && h <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean = %v", got)
	}
	if got := StdDev(xs); math.Abs(got*got-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", got*got, 32.0/7)
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs mishandled")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("max = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q1 = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile sorted its input in place")
	}
}

func TestStandardize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	z := Standardize(xs)
	if math.Abs(Mean(z)) > 1e-12 {
		t.Errorf("standardized mean = %v", Mean(z))
	}
	if math.Abs(StdDev(z)-1) > 1e-12 {
		t.Errorf("standardized sd = %v", StdDev(z))
	}
	constant := Standardize([]float64{7, 7, 7})
	for _, v := range constant {
		if v != 0 {
			t.Fatal("constant column must standardize to zeros")
		}
	}
}

func TestMatrixInverseIdentityQuick(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(4)
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.NormFloat64())
			}
			m.Set(i, i, m.At(i, i)+float64(n)) // diagonally dominant → invertible
		}
		inv, err := inverse(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prod, err := mul(m, inv)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					t.Fatalf("trial %d: (A·A⁻¹)[%d][%d] = %v", trial, i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestMatrixInverseSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := inverse(m); err == nil {
		t.Fatal("singular matrix inverted")
	}
}

func TestMatrixMulDimensionCheck(t *testing.T) {
	a, b := NewMatrix(2, 3), NewMatrix(2, 3)
	if _, err := mul(a, b); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := mulVec(a, []float64{1, 2}); err == nil {
		t.Fatal("vector dimension mismatch accepted")
	}
}

func TestMatrixTranspose(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 2, 7)
	tr := transpose(m)
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 0) != 7 {
		t.Fatalf("transpose wrong: %+v", tr)
	}
}

// TestOLSRecoversCoefficients fits a known linear model and demands
// the estimates land on the truth within tight confidence bounds.
func TestOLSRecoversCoefficients(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	n := 400
	X := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1, x2 := r.NormFloat64(), r.NormFloat64()
		X.Set(i, 0, x1)
		X.Set(i, 1, x2)
		y[i] = 1.5 + 2*x1 - 0.7*x2 + 0.1*r.NormFloat64()
	}
	res, err := OLS(y, X, []string{"x1", "x2"})
	if err != nil {
		t.Fatal(err)
	}
	wants := []float64{1.5, 2, -0.7}
	for i, want := range wants {
		if math.Abs(res.Coef[i]-want) > 0.05 {
			t.Errorf("coef[%s] = %v, want %v", res.Names[i], res.Coef[i], want)
		}
		if res.CILow[i] > want || res.CIHigh[i] < want {
			t.Errorf("95%% CI [%v, %v] misses truth %v", res.CILow[i], res.CIHigh[i], want)
		}
	}
	if res.R2 < 0.99 {
		t.Errorf("R² = %v for a nearly noiseless fit", res.R2)
	}
	// Strong effects must be significant.
	if res.PValue[1] > 0.001 || res.PValue[2] > 0.001 {
		t.Errorf("p-values too large: %v", res.PValue)
	}
}

func TestOLSNullCoefficientNotSignificant(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 200
	X := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1, x2 := r.NormFloat64(), r.NormFloat64()
		X.Set(i, 0, x1)
		X.Set(i, 1, x2)
		y[i] = 3*x1 + r.NormFloat64() // x2 is pure noise
	}
	res, err := OLS(y, X, []string{"real", "noise"})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue[2] < 0.01 {
		t.Errorf("noise coefficient spuriously significant: p = %v", res.PValue[2])
	}
}

func TestOLSUnderdetermined(t *testing.T) {
	X := NewMatrix(3, 4)
	if _, err := OLS([]float64{1, 2, 3}, X, make([]string, 4)); err == nil {
		t.Fatal("more parameters than observations accepted")
	}
}

func TestVIFOrthogonalNearOne(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n := 500
	X := NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			X.Set(i, j, r.NormFloat64())
		}
	}
	vifs, err := VIF(X)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range vifs {
		if v < 0.9 || v > 1.2 {
			t.Errorf("VIF[%d] = %v for independent columns, want ≈1", j, v)
		}
	}
}

func TestVIFDetectsCollinearity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 300
	X := NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		X.Set(i, 0, x)
		X.Set(i, 1, x+0.05*r.NormFloat64()) // nearly collinear with column 0
		X.Set(i, 2, r.NormFloat64())
	}
	vifs, err := VIF(X)
	if err != nil {
		t.Fatal(err)
	}
	if vifs[0] < 10 || vifs[1] < 10 {
		t.Errorf("collinear VIFs = %v, want ≫ 10", vifs)
	}
	if vifs[2] > 2 {
		t.Errorf("independent column VIF = %v, want ≈1", vifs[2])
	}
}

func TestIncBetaBoundaries(t *testing.T) {
	if incBeta(2, 3, 0) != 0 || incBeta(2, 3, 1) != 1 {
		t.Fatal("incBeta boundaries wrong")
	}
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := incBeta(1, 1, x); math.Abs(got-x) > 1e-9 {
			t.Errorf("incBeta(1,1,%v) = %v", x, got)
		}
	}
}

func TestTwoSidedPKnownValues(t *testing.T) {
	// t = 0 means p = 1; |t| → ∞ means p → 0.
	if p := twoSidedP(0, 10); math.Abs(p-1) > 1e-9 {
		t.Errorf("p(t=0) = %v", p)
	}
	if p := twoSidedP(50, 10); p > 1e-6 {
		t.Errorf("p(t=50) = %v", p)
	}
	// With df=10, t=2.228 is the 95% two-sided critical value.
	if p := twoSidedP(2.228, 10); math.Abs(p-0.05) > 0.005 {
		t.Errorf("p(t=2.228, df=10) = %v, want ≈0.05", p)
	}
}

func TestTCritical95Monotone(t *testing.T) {
	prev := tCritical95(1)
	for _, df := range []int{2, 5, 10, 30, 100, 1000} {
		cur := tCritical95(df)
		if cur > prev {
			t.Fatalf("critical value must shrink with df: t(%d)=%v > %v", df, cur, prev)
		}
		prev = cur
	}
	if math.Abs(tCritical95(10000)-1.96) > 0.01 {
		t.Fatal("asymptote must be 1.96")
	}
}
