package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: streams diverge: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 agreed on %d of 100 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	// splitmix64 seeding must avoid the all-zero xoshiro state.
	if r.s == (State{}) {
		t.Fatal("zero seed produced all-zero state")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded stream repeated values: %d distinct of 100", len(seen))
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	a.Uint64()
	a.Reseed(99)
	b := New(99)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Reseed does not reproduce New stream")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square test over 10 buckets; threshold ~ 27.9 is p=0.001 for 9 dof.
	r := New(12345)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Fatalf("Intn(10) chi-square = %.2f, counts %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(8)
	for i := 0; i < 100000; i++ {
		if f := r.Float64Open(); f <= 0 || f >= 1 {
			t.Fatalf("Float64Open = %v out of (0,1)", f)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(9)
	trues := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	if frac := float64(trues) / draws; math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("Bool true fraction = %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(11)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 0.05*expected {
			t.Fatalf("Perm first-element bias at %d: counts %v", i, counts)
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(12)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed contents: %v", xs)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(77)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling splits agreed on %d of 1000 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(123).Split()
	b := New(123).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestQuickIntnInRange(t *testing.T) {
	r := New(99)
	f := func(n uint16, _ uint8) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	r := New(100)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64BitBalance(t *testing.T) {
	// Each of the 64 bit positions should be set about half the time.
	r := New(1001)
	const draws = 20000
	counts := make([]int, 64)
	for i := 0; i < draws; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.5) > 0.02 {
			t.Fatalf("bit %d set fraction %v", b, frac)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000003)
	}
	_ = sink
}

// TestStateMatchesUint64 pins the register-held stepping: a state loaded
// with State and advanced with Next yields exactly the Uint64 stream, and
// SetState hands the advanced state back so the generator continues
// where the loop stopped.
func TestStateMatchesUint64(t *testing.T) {
	a, b := New(42), New(42)
	st := a.State()
	for i := 0; i < 1000; i++ {
		x, next := st.Next()
		st = next
		if want := b.Uint64(); x != want {
			t.Fatalf("draw %d: Next %#x, Uint64 %#x", i, x, want)
		}
	}
	a.SetState(st)
	for i := 0; i < 10; i++ {
		if x, want := a.Uint64(), b.Uint64(); x != want {
			t.Fatalf("after SetState, draw %d: %#x, want %#x", i, x, want)
		}
	}
}
