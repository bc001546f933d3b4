package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// TestRandCSRPinned holds RandCSR to the matrices the map-per-row
// generator produced (hashes taken at commit 2a94938): every sparse
// kernel's golden cycle count depends on the exact columns and values.
// The hash covers RowPtr, then Col, then the bits of Val, little-endian.
func TestRandCSRPinned(t *testing.T) {
	for _, c := range []struct {
		n       int
		density float64
		seed    int64
		want    string
	}{
		{64, 0.1, 1, "eb45e7e60d8f79395a0f7ae7a7e707a0101d36b65804967daddddf7e9057d693"},
		{4096, 24.0 / 4096, 1, "827d364403e6092091ebff808ac9d0aaa3c027b954ef223742d451a31a35393d"},
		{8192, 24.0 / 8192, 7, "5c54c050ef98ad202b5f156f0bc83bd1913832c4d917f8b442b240661ae951e8"},
		{128, 0.5, 3, "77eb854286e9047aa86b1822846129d52ab602c5d88c51ae77c7d61e46452d2d"},
		{16, 1, 9, "85bea378ec1593bad97c27d678857d136ca4a45b9b647319f2fd813dbd5675d9"}, // every column: the redraw loop's worst case
		{50, 0.001, 2, "f44021edf3905f66245e938de4b5c8e9c713eaa6ee0f85bbe98827b663a73281"},
		{2048, 0.008, 5, "73a0441f5ace6725fc36c6d763ab7908b7173f0e19755632f54cf0eab7e547f5"},
		{33, 0.97, 11, "19cad4da3e7eb4b254f2e4c3814a5c027499eca409d239a4ceca4b04d10a6936"},
	} {
		a := RandCSR(c.n, c.density, c.seed)
		h := sha256.New()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for _, v := range a.RowPtr {
			put(v)
		}
		for _, v := range a.Col {
			put(v)
		}
		for _, v := range a.Val {
			put(math.Float64bits(v))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
			t.Errorf("RandCSR(%d, %v, %d) = %s, want %s", c.n, c.density, c.seed, got, c.want)
		}
	}
}
