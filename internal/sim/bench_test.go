package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineEventLoop is the engine's headline microbenchmark: 64
// processes interleaving timed sleeps, so every resumption goes through the
// full schedule/pop/handoff path. One iteration is a complete simulation of
// 64*200 = 12800 events.
func BenchmarkEngineEventLoop(b *testing.B) {
	b.ReportAllocs()
	const procs, sleeps = 64, 200
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < procs; j++ {
			j := j
			e.Spawn(fmt.Sprintf("p%d", j), func(p *Process) {
				for k := 0; k < sleeps; k++ {
					p.Sleep(Time(j+1) * Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs*sleeps), "ns/event")
}

// BenchmarkEngineSequentialChain measures the uncontended case — a single
// process sleeping repeatedly with nothing else scheduled. This is the shape
// of a compute phase or an exclusive device service interval.
func BenchmarkEngineSequentialChain(b *testing.B) {
	b.ReportAllocs()
	const sleeps = 10000
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.Spawn("solo", func(p *Process) {
			for k := 0; k < sleeps; k++ {
				p.Sleep(Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sleeps), "ns/event")
}

// BenchmarkEngineSpawnChurn measures process creation/teardown: a driver
// spawns a short-lived child per tick, so finished-process bookkeeping is the
// dominant cost.
func BenchmarkEngineSpawnChurn(b *testing.B) {
	b.ReportAllocs()
	const children = 2000
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.Spawn("driver", func(p *Process) {
			for k := 0; k < children; k++ {
				e.Spawn("child", func(c *Process) {
					c.Sleep(Microsecond)
				})
				p.Sleep(2 * Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*children), "ns/spawn")
}

// BenchmarkEngineContendedResource measures the Park/Wake handoff path: 32
// processes round-robin through a capacity-1 resource.
func BenchmarkEngineContendedResource(b *testing.B) {
	b.ReportAllocs()
	const procs, uses = 32, 100
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		r := NewResource(e, "disk", 1)
		for j := 0; j < procs; j++ {
			e.Spawn(fmt.Sprintf("u%d", j), func(p *Process) {
				for k := 0; k < uses; k++ {
					r.Use(p, Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs*uses), "ns/use")
}

// BenchmarkEngineBarrierRelease measures the batched barrier-release path: a
// wide group arriving at a barrier repeatedly, so scheduleBatch's single
// heapify (rather than per-waiter sift-ups) dominates.
func BenchmarkEngineBarrierRelease(b *testing.B) {
	b.ReportAllocs()
	const procs, roundsPer = 256, 50
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		bar := NewBarrier(e, "wide", procs)
		for j := 0; j < procs; j++ {
			j := j
			e.Spawn(fmt.Sprintf("p%d", j), func(p *Process) {
				for k := 0; k < roundsPer; k++ {
					p.Sleep(Time(j%7) * Microsecond)
					bar.Wait(p)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs*roundsPer), "ns/arrival")
}
