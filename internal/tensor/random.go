package tensor

import (
	"math"
	"math/rand"
)

// RandNormal returns an r×c matrix with i.i.d. N(0, std²) entries drawn
// from rng.
func RandNormal(r, c int, std float64, rng *rand.Rand) *Dense {
	out := New(r, c)
	for i := range out.Data {
		out.Data[i] = rng.NormFloat64() * std
	}
	return out
}

// XavierInit returns an r×c weight matrix initialized with the Glorot
// normal scheme std = sqrt(2/(fanIn+fanOut)), the initialization used by
// the DeePMD reference implementation for its tanh networks.
func XavierInit(r, c int, rng *rand.Rand) *Dense {
	std := math.Sqrt(2 / float64(r+c))
	return RandNormal(r, c, std, rng)
}
