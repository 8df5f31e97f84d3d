package fec_test

import (
	"math/rand"
	"testing"

	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/traffic"
)

// BenchmarkConvDecode times one warm rate-1/2 K=9 decode at the traffic
// engine's burst shape: the info-bit count the engine fits into the
// default TDMA burst payload (192 bits, 200 trellis steps), over noisy
// LLRs so the add-compare-select decisions are not predictable.
func BenchmarkConvDecode(b *testing.B) {
	c := fec.UMTSConvHalf()
	budget := modem.DefaultBurstFormat(payload.DefaultConfig().TDMAPayloadSymbols).PayloadBits()
	k := traffic.InfoBitsFor(c, budget)
	rng := rand.New(rand.NewSource(1))
	llr := make([]float64, c.EncodedLen(k))
	for i := range llr {
		llr[i] = 2 * (1 + 0.8*rng.NormFloat64()) / 0.64
	}
	c.Decode(llr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded = c.Decode(llr)
	}
}

// decoded keeps the benchmarked decode's result live.
var decoded []byte
