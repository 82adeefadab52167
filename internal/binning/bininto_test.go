package binning

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// batchMappers are one mapper of every kind BinInto resolves — its two
// concrete loops and the interface fallback — over [lo, hi) with n bins.
func batchMappers(t testing.TB, lo, hi float64, n int) map[string]Mapper {
	u, err := NewUniform(lo, hi, n)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExplicit(Edges(u))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrouped(u, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Mapper{"uniform": u, "explicit": e, "interface": g}
}

// checkBinInto holds BinInto to its contract at every width: element for
// element the mapper's own Bin.
func checkBinInto(t *testing.T, name string, m Mapper, src []float64) {
	t.Helper()
	d8, d16, d32 := make([]uint8, len(src)), make([]uint16, len(src)), make([]int32, len(src))
	if m.Bins() <= 1<<8 {
		BinInto(m, d8, src)
	}
	BinInto(m, d16, src)
	BinInto(m, d32, src)
	for i, v := range src {
		want := m.Bin(v)
		if (m.Bins() <= 1<<8 && int(d8[i]) != want) || int(d16[i]) != want || int(d32[i]) != want {
			t.Fatalf("%s: value %v (bits %#x) is in bin %d; BinInto gave uint8 %d, uint16 %d, int32 %d",
				name, v, math.Float64bits(v), want, d8[i], d16[i], d32[i])
		}
	}
}

// edgeValues are the inputs a bin kernel gets wrong first: both ends of the
// range and just beside them, every interior edge, and what is not a number
// in the range at all.
func edgeValues(m Mapper) []float64 {
	lo, hi := m.Low(0), m.High(m.Bins()-1)
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		lo, hi, math.Nextafter(lo, hi), math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, lo), math.Nextafter(hi, math.Inf(1))}
	for b := 0; b < m.Bins(); b++ {
		e := m.High(b)
		vals = append(vals, e, math.Nextafter(e, lo), math.Nextafter(e, hi))
	}
	return vals
}

func TestBinIntoMatchesBin(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, bins := range []int{1, 2, 120, 256, 257, 1000} {
		for name, m := range batchMappers(t, -3.5, 12.25, bins) {
			src := edgeValues(m)
			for i := 0; i < 2000; i++ {
				src = append(src, -5+20*r.Float64())
			}
			checkBinInto(t, name, m, src)
		}
	}
	BinInto[uint8](batchMappers(t, 0, 1, 4)["uniform"], nil, nil) // an empty batch is fine
}

// FuzzBinInto feeds the kernels arbitrary float64 bit patterns — NaNs of
// every payload, infinities, negative zero, subnormals — eight bytes a value.
func FuzzBinInto(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324), uint16(120))
	f.Add(seed(-3.5, 12.25, 12.249999999999998, -3.5000000000000004, 4.375), uint16(257))
	f.Add(seed(edgeValues(batchMappers(f, -3.5, 12.25, 9)["uniform"])...), uint16(9))
	f.Fuzz(func(t *testing.T, raw []byte, bins uint16) {
		src := make([]float64, len(raw)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		for name, m := range batchMappers(t, -3.5, 12.25, int(bins)%1000+1) {
			checkBinInto(t, name, m, src)
		}
	})
}

func BenchmarkBinInto(b *testing.B) {
	const n = 1 << 18
	r := rand.New(rand.NewSource(8))
	src := make([]float64, n)
	for i := range src { // a smooth field with some noise, mostly inside the range
		src[i] = 4 + 8*math.Sin(float64(i)/900) + r.Float64()
	}
	for _, kind := range []string{"uniform", "explicit", "interface"} {
		m := batchMappers(b, -3.5, 12.25, 160)[kind]
		b.Run(kind+"/uint8", func(b *testing.B) { benchBinInto(b, m, make([]uint8, n), src) })
		b.Run(kind+"/uint16", func(b *testing.B) { benchBinInto(b, m, make([]uint16, n), src) })
	}
}

func benchBinInto[T uint8 | uint16](b *testing.B, m Mapper, dst []T, src []float64) {
	b.SetBytes(int64(8 * len(src)))
	for i := 0; i < b.N; i++ {
		BinInto(m, dst, src)
	}
}
