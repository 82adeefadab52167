package codec_test

import (
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/sim/heat3d"
)

var sinkBitmap bitvec.Bitmap

// BenchmarkEncodeAuto runs the adaptive policy over every bin of one
// heat3d step (64³ elements, 160 bins) built as the in-situ path builds it:
// WAH sources. One op is one whole index.
func BenchmarkEncodeAuto(b *testing.B) {
	h, err := heat3d.New(64, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	var field []float64
	for step := 0; step < 20; step++ {
		field = h.Step(1)[0].Data
	}
	rg := h.Ranges()[0]
	m, err := binning.NewUniform(rg[0], rg[1], 160)
	if err != nil {
		b.Fatal(err)
	}
	x := index.Build(field, m)
	chosen := map[codec.ID]int{}
	for bin := 0; bin < x.Bins(); bin++ {
		chosen[codec.Of(codec.Encode(x.Bitmap(bin), codec.Auto))]++
	}
	b.Logf("policy chose wah=%d bbc=%d", chosen[codec.WAH], chosen[codec.BBC])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for bin := 0; bin < x.Bins(); bin++ {
			sinkBitmap = codec.Encode(x.Bitmap(bin), codec.Auto)
		}
	}
}
