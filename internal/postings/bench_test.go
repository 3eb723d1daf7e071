package postings

import (
	"math/rand"
	"testing"
)

func denseList(n int) []int32 {
	rng := rand.New(rand.NewSource(2))
	out := make([]int32, n)
	cur := int32(0)
	for i := range out {
		cur += int32(1 + rng.Intn(4))
		out[i] = cur
	}
	return out
}

func BenchmarkEncode(b *testing.B) {
	list := denseList(100000)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], list)
	}
	b.SetBytes(int64(len(list) * 4))
}

func BenchmarkDecode(b *testing.B) {
	list := denseList(100000)
	buf := Encode(nil, list)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := Decode(buf, len(list))
		if err != nil || len(got) != len(list) {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(list) * 4))
}
