package core

import "testing"

// BenchmarkSweepCorruption runs the 3-app x 3-class corruption sweep at small
// scale: nine independent core.Run invocations per iteration.
func BenchmarkSweepCorruption(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CorruptionSweep(11); err != nil {
			b.Fatal(err)
		}
	}
}
