package sim

import "testing"

// TestFIFOMatchesSlice drives a FIFO and a plain re-sliced queue through the
// same pushes and pops, including the compactions a bounded length forces,
// and requires identical contents throughout; once the array has grown, a
// bounded queue must not regrow it.
func TestFIFOMatchesSlice(t *testing.T) {
	var q FIFO[int]
	var ref []int
	rng := NewRNG(3)
	next := 0
	capAt := -1
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || len(ref) < 40 && rng.Float64() < 0.55 {
			q.Push(next)
			ref = append(ref, next)
			next++
		} else {
			if got, want := q.Pop(), ref[0]; got != want {
				t.Fatalf("step %d: popped %d, want %d", step, got, want)
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(ref))
		}
		for i, v := range q.All() {
			if v != ref[i] {
				t.Fatalf("step %d: All()[%d] = %d, want %d", step, i, v, ref[i])
			}
		}
		if step == 10000 {
			capAt = cap(q.buf)
		}
	}
	if cap(q.buf) != capAt {
		t.Fatalf("bounded queue regrew from %d to %d", capAt, cap(q.buf))
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len %d after Reset", q.Len())
	}
}
