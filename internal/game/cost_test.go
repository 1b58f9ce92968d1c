package game

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAlphaConstruction(t *testing.T) {
	a := NewAlpha(15, 2)
	if a.Float() != 7.5 || a.String() != "15/2" {
		t.Fatalf("alpha = %v (%v)", a.Float(), a.String())
	}
	if AlphaInt(3).String() != "3" {
		t.Fatal("integer alpha format")
	}
	for _, bad := range [][2]int64{{0, 1}, {-1, 2}, {1, 0}, {1, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewAlpha(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			NewAlpha(bad[0], bad[1])
		}()
	}
}

func TestCostCmpKnownValues(t *testing.T) {
	a := NewAlpha(15, 2) // alpha = 7.5, the Fig. 9 regime 7 < a < 8
	cases := []struct {
		x, y Cost
		want int
	}{
		// g's swap in Fig. 9: a+15 < a+21.
		{Cost{Halves: 2, Dist: 15}, Cost{Halves: 2, Dist: 21}, -1},
		// f's buy in Fig. 9: 11+a < 19 iff a < 8.
		{Cost{Halves: 2, Dist: 11}, Cost{Halves: 0, Dist: 19}, -1},
		// c's delete in Fig. 9: 16 < 9+a iff a > 7.
		{Cost{Halves: 0, Dist: 16}, Cost{Halves: 2, Dist: 9}, -1},
		// Equality: 2 halves of 15/2 = 7.5 vs ... no integer dist ties at
		// non-integral alpha, so test an exact tie with alpha=4: below.
		{Cost{Halves: 2, Dist: 15}, Cost{Halves: 2, Dist: 15}, 0},
		{Cost{Halves: 0, Dist: DistInf}, Cost{Halves: 0, Dist: 3}, 1},
		{Cost{Halves: 4, Dist: DistInf}, Cost{Halves: 0, Dist: DistInf}, 0},
	}
	for i, c := range cases {
		if got := c.x.Cmp(c.y, a); got != c.want {
			t.Fatalf("case %d: Cmp = %d, want %d", i, got, c.want)
		}
		if got := c.y.Cmp(c.x, a); got != -c.want {
			t.Fatalf("case %d: reverse Cmp = %d, want %d", i, got, -c.want)
		}
	}
	four := AlphaInt(4)
	// 2*(4/2)+10 = 14 == 0+14.
	if (Cost{Halves: 2, Dist: 10}).Cmp(Cost{Halves: 0, Dist: 14}, four) != 0 {
		t.Fatal("exact tie at integral alpha missed")
	}
}

func TestCostCmpMatchesFloat(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		a := NewAlpha(1+int64(r.Intn(50)), 1+int64(r.Intn(10)))
		x := Cost{Halves: int64(r.Intn(40)), Dist: int64(r.Intn(200))}
		y := Cost{Halves: int64(r.Intn(40)), Dist: int64(r.Intn(200))}
		fx := float64(x.Halves)*a.Float()/2 + float64(x.Dist)
		fy := float64(y.Halves)*a.Float()/2 + float64(y.Dist)
		got := x.Cmp(y, a)
		// Floating comparison is only trustworthy away from ties; exact
		// ties are checked by cross-multiplication identity instead.
		lhs := (x.Halves - y.Halves) * a.Num
		rhs := (y.Dist - x.Dist) * 2 * a.Den
		want := 0
		if lhs < rhs {
			want = -1
		} else if lhs > rhs {
			want = 1
		}
		if got != want {
			t.Fatalf("Cmp(%v,%v;%v) = %d, want %d (floats %v vs %v)", x, y, a, got, want, fx, fy)
		}
	}
}

// bigCmp is Cmp's reference: the exact rational costs Halves*alpha/2 + Dist
// compared in math/big, with every infinite cost equal and above all
// finite ones.
func bigCmp(c, o Cost, a Alpha) int {
	ci, oi := c.Infinite(), o.Infinite()
	if ci || oi {
		switch {
		case ci && oi:
			return 0
		case ci:
			return 1
		}
		return -1
	}
	val := func(x Cost) *big.Rat {
		edge := new(big.Rat).SetFrac(
			new(big.Int).Mul(big.NewInt(x.Halves), big.NewInt(a.Num)),
			new(big.Int).Mul(big.NewInt(2), big.NewInt(a.Den)))
		return edge.Add(edge, new(big.Rat).SetInt64(x.Dist))
	}
	return val(c).Cmp(val(o))
}

// TestCostCmpExact pins Cmp to exact rational comparison where int64
// cross-multiplication would wrap: SUM costs of n = 10^6 networks against
// fine-grained alphas, distances at DistInf-1, math.MaxInt64 numerators,
// denominators and halves, and random draws over the whole input range
// (halves >= 0, distances below DistInf, any positive alpha).
func TestCostCmpExact(t *testing.T) {
	const maxI = math.MaxInt64
	type tc struct {
		x, y Cost
		a    Alpha
	}
	cases := []tc{
		// A path end's SUM cost at n = 10^6 against two halves of 10^-7.
		{Cost{Dist: 500_000_000_000}, Cost{Halves: 2}, NewAlpha(1, 10_000_000)},
		{Cost{Dist: DistInf - 1}, Cost{}, NewAlpha(1, maxI)},
		{Cost{Dist: DistInf - 1}, Cost{Halves: 1}, NewAlpha(maxI, 1)},
		{Cost{Dist: DistInf - 1}, Cost{Halves: 2}, NewAlpha(maxI, maxI)},
		{Cost{Dist: DistInf - 1, Halves: 3}, Cost{Dist: 0, Halves: 5}, NewAlpha(maxI, maxI-1)},
		{Cost{Dist: DistInf - 1}, Cost{Dist: DistInf}, NewAlpha(maxI, 1)},
		{Cost{Halves: maxI}, Cost{Dist: DistInf - 1}, NewAlpha(1, maxI)},
		{Cost{Halves: maxI}, Cost{Halves: maxI - 1, Dist: 1}, NewAlpha(maxI, maxI)},
		{Cost{Halves: maxI}, Cost{}, NewAlpha(maxI, 1)},
		// Exact ties of huge products: 2^62 * 2/2 = 2^62.
		{Cost{Halves: 2}, Cost{Dist: 1 << 49}, NewAlpha(1<<49, 1)},
		{Cost{Halves: 1 << 61, Dist: 3}, Cost{Halves: 1<<61 - 1, Dist: 3 + 1<<40}, NewAlpha(1<<41, 1)},
	}
	r := rand.New(rand.NewSource(41))
	// draw returns a value below 2^b for a uniform bit length b <= bitsMax.
	draw := func(bitsMax int) int64 {
		if b := 1 + r.Intn(bitsMax); b < 63 {
			return r.Int63n(int64(1) << b)
		}
		return r.Int63()
	}
	for i := 0; i < 20000; i++ {
		a := NewAlpha(max(1, draw(63)), max(1, draw(63)))
		x := Cost{Halves: draw(63), Dist: draw(50)}
		y := Cost{Halves: draw(63), Dist: draw(50)}
		if i%3 == 0 {
			y.Halves = x.Halves + int64(r.Intn(5)) - 2
			if y.Halves < 0 {
				y.Halves = 0
			}
		}
		cases = append(cases, tc{x, y, a})
	}
	for i, c := range cases {
		want := bigCmp(c.x, c.y, c.a)
		if got := c.x.Cmp(c.y, c.a); got != want {
			t.Fatalf("case %d: Cmp(%v, %v; %v) = %d, want %d", i, c.x, c.y, c.a, got, want)
		}
		if got := c.y.Cmp(c.x, c.a); got != -want {
			t.Fatalf("case %d: reverse Cmp(%v, %v; %v) = %d, want %d", i, c.y, c.x, c.a, got, -want)
		}
	}
}

func TestCostCmpIsTotalPreorder(t *testing.T) {
	a := NewAlpha(7, 3)
	gen := func(r *rand.Rand) Cost {
		c := Cost{Halves: int64(r.Intn(20)), Dist: int64(r.Intn(50))}
		if r.Intn(10) == 0 {
			c.Dist = DistInf
		}
		return c
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x, y, z := gen(r), gen(r), gen(r)
		// Antisymmetry of the comparator.
		if x.Cmp(y, a) != -y.Cmp(x, a) {
			return false
		}
		// Transitivity: x<=y and y<=z implies x<=z.
		if x.Cmp(y, a) <= 0 && y.Cmp(z, a) <= 0 && x.Cmp(z, a) > 0 {
			return false
		}
		// Reflexivity.
		return x.Cmp(x, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestCostStringAndFloat(t *testing.T) {
	a := AlphaInt(6)
	c := Cost{Halves: 2, Dist: 5}
	if c.Float(a) != 11 {
		t.Fatalf("Float = %v", c.Float(a))
	}
	if (Cost{Dist: DistInf}).String() != "inf" {
		t.Fatal("inf string")
	}
	if (Cost{Dist: 7}).String() != "7" {
		t.Fatal("plain dist string")
	}
	if !(Cost{Dist: DistInf}).Infinite() || (Cost{Dist: 9}).Infinite() {
		t.Fatal("Infinite misclassifies")
	}
}
