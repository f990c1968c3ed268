package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// fabricWorkload builds a K-shard ring with real cross-shard traffic and
// returns the merged execution trace: every shard runs several processes that
// interleave RNG-jittered local sleeps with mail to the next shard, and a
// fraction of deliveries hop one shard further, so nested sends, tie-breaks,
// and the horizon protocol are all exercised. The trace is a pure function of
// (shards, seed) — worker count must not leak into it.
func fabricWorkload(t testing.TB, shards, workers int, seed uint64) string {
	const (
		procs     = 6
		rounds    = 40
		lookahead = 5 * Microsecond
	)
	f := NewFabric(workers)
	sh := make([]*Shard, shards)
	logs := make([][]string, shards)
	for i := range sh {
		sh[i] = f.AddShard(fmt.Sprintf("shard%d", i), seed)
	}
	for i := range sh {
		f.Connect(sh[i], sh[(i+1)%shards], lookahead)
	}
	for i := range sh {
		i := i
		s := sh[i]
		e := s.Engine()
		rng := s.RNG()
		for j := 0; j < procs; j++ {
			j := j
			e.Spawn(fmt.Sprintf("worker%d", j), func(p *Process) {
				for r := 0; r < rounds; r++ {
					p.Sleep(rng.Uniform(Microsecond, 50*Microsecond))
					logs[i] = append(logs[i], fmt.Sprintf("s%d w%d r%d t=%d", i, j, r, p.Now()))
					dst := sh[(i+1)%shards]
					delay := lookahead + Time(rng.Intn(30))*Microsecond
					hop := rng.Intn(4) == 0
					msg := fmt.Sprintf("mail s%d->s%d w%d r%d", i, dst.idx, j, r)
					s.Send(p, dst, delay, "mail", func(mp *Process) {
						logs[dst.idx] = append(logs[dst.idx], fmt.Sprintf("%s t=%d", msg, mp.Now()))
						if hop {
							next := sh[(dst.idx+1)%shards]
							dst.Send(mp, next, lookahead, "hop", func(hp *Process) {
								logs[next.idx] = append(logs[next.idx], fmt.Sprintf("%s hop t=%d", msg, hp.Now()))
							})
						}
					})
				}
			})
		}
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := range logs {
		for _, l := range logs[i] {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestFabricByteIdenticalAcrossWorkerCounts is the sim-layer determinism
// oracle: the same sharded workload must produce an identical merged trace at
// every worker count, with workers=1 as the serial reference.
func TestFabricByteIdenticalAcrossWorkerCounts(t *testing.T) {
	const shards, seed = 4, 1234
	ref := fabricWorkload(t, shards, 1, seed)
	if !strings.Contains(ref, "mail s0->s1") || !strings.Contains(ref, "hop t=") {
		t.Fatalf("workload generated no cross-shard traffic:\n%.400s", ref)
	}
	for _, workers := range []int{2, 4, 8} {
		got := fabricWorkload(t, shards, workers, seed)
		if got != ref {
			t.Fatalf("trace at workers=%d differs from serial reference", workers)
		}
	}
}

// TestFabricHorizonBoundary guards the exclusive window edge: mail sent with
// delay exactly equal to the edge lookahead — timestamped precisely at the
// receiver's horizon — must still be delivered before it is due.
func TestFabricHorizonBoundary(t *testing.T) {
	const lookahead = 3 * Microsecond
	f := NewFabric(2)
	a := f.AddShard("a", 1)
	b := f.AddShard("b", 1)
	f.Connect(a, b, lookahead)
	var got []Time
	a.Engine().Spawn("sender", func(p *Process) {
		for r := 0; r < 10; r++ {
			p.Sleep(Microsecond)
			a.Send(p, b, lookahead, "edge", func(mp *Process) {
				got = append(got, mp.Now())
			})
		}
	})
	// Keep b's clock moving so its windows actually advance.
	b.Engine().Spawn("ticker", func(p *Process) {
		for r := 0; r < 20; r++ {
			p.Sleep(Microsecond)
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d of 10 horizon-edge messages", len(got))
	}
	for i, at := range got {
		want := Time(i+1)*Microsecond + lookahead
		if at != want {
			t.Fatalf("message %d ran at %v, want %v", i, at, want)
		}
	}
}

// TestFabricChainThroughQuiescentShard guards the send-bound relaxation on
// positive-lookahead edges: in an A->B->C chain where B has nothing queued at
// the first synchronization point, C's horizon must still account for A's
// mail being forwarded through B. Bounding C by B's own next event alone would
// let C free-run past the forwarded mail's arrival and fail with "mail for
// the past".
func TestFabricChainThroughQuiescentShard(t *testing.T) {
	const ab, bc = 5 * Microsecond, 7 * Microsecond
	for _, workers := range []int{1, 2} {
		f := NewFabric(workers)
		a := f.AddShard("a", 1)
		b := f.AddShard("b", 1)
		c := f.AddShard("c", 1)
		f.Connect(a, b, ab)
		f.Connect(b, c, bc)
		var got Time = -1
		a.Engine().Spawn("origin", func(p *Process) {
			p.Sleep(Microsecond)
			a.Send(p, b, ab, "to-b", func(bp *Process) {
				b.Send(bp, c, bc, "to-c", func(cp *Process) {
					got = cp.Now()
				})
			})
		})
		// C's own events run well past the forwarded mail's arrival.
		c.Engine().Spawn("ticker", func(p *Process) {
			for r := 0; r < 20; r++ {
				p.Sleep(3 * Microsecond)
			}
		})
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		if want := Microsecond + ab + bc; got != want {
			t.Fatalf("workers=%d: forwarded mail ran at %v, want %v", workers, got, want)
		}
	}
}

// TestFabricDeadlock verifies the global deadlock determination: a process
// parked forever with no mail in flight anywhere must be reported (by the
// fabric — the shard engine itself defers the verdict).
func TestFabricDeadlock(t *testing.T) {
	f := NewFabric(2)
	a := f.AddShard("a", 1)
	b := f.AddShard("b", 1)
	f.Connect(a, b, Microsecond)
	b.Engine().Spawn("stuck", func(p *Process) {
		p.Park("mail", "never-sent")
	})
	err := f.Run()
	if err == nil {
		t.Fatal("expected a fabric deadlock error")
	}
	if !strings.Contains(err.Error(), "fabric deadlock") || !strings.Contains(err.Error(), "stuck(id=1,mail:never-sent)") {
		t.Fatalf("deadlock error missing detail: %v", err)
	}
}

// TestFabricStoppedShard verifies a stopped engine is treated as quiescent:
// the fabric terminates even though the shard still has queued events and
// living processes, mirroring the serial engine's Stop semantics.
func TestFabricStoppedShard(t *testing.T) {
	f := NewFabric(2)
	a := f.AddShard("a", 1)
	b := f.AddShard("b", 1)
	f.Connect(a, b, Microsecond)
	a.Engine().Spawn("halter", func(p *Process) {
		p.Sleep(5 * Microsecond)
		p.Engine().Stop()
		p.Park("abandoned-by-stop", "")
	})
	b.Engine().Spawn("worker", func(p *Process) {
		p.Sleep(10 * Microsecond)
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if !a.Engine().Stopped() {
		t.Fatal("shard a should be stopped")
	}
	if got := b.Engine().Now(); got != 10*Microsecond {
		t.Fatalf("shard b halted at %v, want 10µs", got)
	}
}

// TestFabricShardGoexitReportsShard checks runtime.Goexit in a process on a
// concurrently run shard (t.Fatal in a test process): the shard's driver
// goroutine exits with it, and Run must return an error naming the shard
// rather than wait forever for the window to finish.
func TestFabricShardGoexitReportsShard(t *testing.T) {
	f := NewFabric(2)
	a := f.AddShard("a", 1)
	b := f.AddShard("b", 1)
	f.Connect(a, b, 5*Microsecond)
	f.Connect(b, a, 5*Microsecond)
	a.Engine().Spawn("sleeper", func(p *Process) {
		p.Sleep(Microsecond)
	})
	b.Engine().Spawn("quitter", func(p *Process) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	err := f.Run()
	if err == nil || !strings.Contains(err.Error(), "fabric shard b") {
		t.Fatalf("got %v, want an error naming shard b", err)
	}
}

// TestFabricSendValidation pins the misuse panics: sending without an edge
// and sending below the edge lookahead both indicate a broken partitioning
// and must fail loudly.
func TestFabricSendValidation(t *testing.T) {
	mustPanic := func(name string, build func(f *Fabric, a, b *Shard, p *Process)) {
		t.Run(name, func(t *testing.T) {
			f := NewFabric(1)
			a := f.AddShard("a", 1)
			b := f.AddShard("b", 1)
			f.Connect(a, b, 2*Microsecond)
			a.Engine().Spawn("bad", func(p *Process) {
				defer func() {
					if recover() == nil {
						t.Error("expected a panic")
					}
					p.Engine().Stop()
				}()
				build(f, a, b, p)
			})
			_ = f.Run()
		})
	}
	mustPanic("no-edge", func(f *Fabric, a, b *Shard, p *Process) {
		b.Send(p, a, 2*Microsecond, "x", func(*Process) {}) // b->a never connected (and wrong engine)
	})
	mustPanic("below-lookahead", func(f *Fabric, a, b *Shard, p *Process) {
		a.Send(p, b, Microsecond, "x", func(*Process) {})
	})
}

// tieSend describes one cross-shard send in the tie-break tests: the source
// shard index, the instant the sender transmits, an extra delay on top of the
// edge lookahead, and a label the receiver logs at delivery.
type tieSend struct {
	src   int
	send  Time
	extra Time
	label string
}

// runTieBreak executes the sends against a star of source shards around one
// hub and returns the labels in the order the hub executed them.
func runTieBreak(t *testing.T, sources, workers int, sends []tieSend) []string {
	t.Helper()
	const lookahead = 5 * Microsecond
	f := NewFabric(workers)
	hub := f.AddShard("hub", 1)
	srcs := make([]*Shard, sources)
	for i := range srcs {
		srcs[i] = f.AddShard(fmt.Sprintf("src%d", i), 1)
		f.Connect(srcs[i], hub, lookahead)
	}
	var got []string
	for i := range srcs {
		i := i
		var mine []tieSend
		for _, sd := range sends {
			if sd.src == i {
				mine = append(mine, sd)
			}
		}
		if len(mine) == 0 {
			continue
		}
		srcs[i].Engine().Spawn("sender", func(p *Process) {
			for _, sd := range mine {
				sd := sd
				if sd.send > p.Now() {
					p.Sleep(sd.send - p.Now())
				}
				srcs[i].Send(p, hub, lookahead+sd.extra, "tie", func(mp *Process) {
					got = append(got, fmt.Sprintf("%s@%d", sd.label, mp.Now()))
				})
			}
		})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// expectTieOrder computes the canonical delivery order: by arrival time, then
// source shard index, then per-source send order (the sequence number).
func expectTieOrder(sends []tieSend) []string {
	const lookahead = 5 * Microsecond
	type key struct {
		at  Time
		src int
		seq int
	}
	seqs := map[int]int{}
	keyed := make([]struct {
		k     key
		label string
	}, len(sends))
	for i, sd := range sends {
		seqs[sd.src]++
		keyed[i].k = key{at: sd.send + lookahead + sd.extra, src: sd.src, seq: seqs[sd.src]}
		keyed[i].label = fmt.Sprintf("%s@%d", sd.label, keyed[i].k.at)
	}
	for i := range keyed {
		for j := i + 1; j < len(keyed); j++ {
			a, b := keyed[i].k, keyed[j].k
			if b.at < a.at || (b.at == a.at && (b.src < a.src || (b.src == a.src && b.seq < a.seq))) {
				keyed[i], keyed[j] = keyed[j], keyed[i]
			}
		}
	}
	out := make([]string, len(keyed))
	for i := range keyed {
		out[i] = keyed[i].label
	}
	return out
}

// TestFabricMailTieBreakOrder pins the canonical delivery order for
// equal-timestamp mail from different source shards: (time, src, seq), with
// the per-source sequence preserving each sender's own send order.
func TestFabricMailTieBreakOrder(t *testing.T) {
	const tick = Microsecond
	cases := []struct {
		name    string
		sources int
		sends   []tieSend
	}{
		{
			name:    "simultaneous-across-sources",
			sources: 4,
			sends: []tieSend{
				{src: 3, send: 10 * tick, label: "d"},
				{src: 1, send: 10 * tick, label: "b"},
				{src: 0, send: 10 * tick, label: "a"},
				{src: 2, send: 10 * tick, label: "c"},
			},
		},
		{
			name:    "sequence-within-source",
			sources: 2,
			sends: []tieSend{
				{src: 0, send: 10 * tick, extra: 2 * tick, label: "a1"},
				{src: 0, send: 12 * tick, label: "a2"}, // same arrival as a1, later seq
				{src: 1, send: 12 * tick, label: "b1"},
			},
		},
		{
			name:    "time-beats-source",
			sources: 3,
			sends: []tieSend{
				{src: 2, send: 8 * tick, label: "late-src-early-mail"},
				{src: 0, send: 10 * tick, label: "x"},
				{src: 1, send: 10 * tick, label: "y"},
			},
		},
		{
			name:    "interleaved-bursts",
			sources: 3,
			sends: []tieSend{
				{src: 1, send: 5 * tick, label: "b1"},
				{src: 1, send: 5 * tick, label: "b2"},
				{src: 0, send: 5 * tick, label: "a1"},
				{src: 2, send: 5 * tick, label: "c1"},
				{src: 0, send: 9 * tick, label: "a2"},
				{src: 2, send: 5 * tick, extra: 4 * tick, label: "c2"}, // ties with a2
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := expectTieOrder(tc.sends)
			for _, workers := range []int{1, 2, 4} {
				got := runTieBreak(t, tc.sources, workers, tc.sends)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("workers=%d: delivery order\n got %v\nwant %v", workers, got, want)
				}
			}
		})
	}
}

// FuzzFabricMailTieBreak generates random bursts of simultaneous cross-shard
// sends and checks the delivered order against the canonical (time, src, seq)
// sort at one and at four workers.
func FuzzFabricMailTieBreak(f *testing.F) {
	f.Add(uint64(1), 3, 8)
	f.Add(uint64(42), 5, 16)
	f.Add(uint64(0xdecaf), 2, 12)
	// The satellite seed: every source fires at the same instant, so every
	// arrival ties and only (src, seq) decides.
	f.Add(uint64(7777), 4, 4)
	f.Fuzz(func(t *testing.T, seed uint64, sources, mails int) {
		if sources < 0 {
			sources = -sources
		}
		if mails < 0 {
			mails = -mails
		}
		sources = 2 + sources%6
		mails = 1 + mails%24
		rng := NewRNG(seed)
		sends := make([]tieSend, 0, mails)
		// Quantized send times and a small extra-delay range make
		// equal-arrival collisions the common case, not the exception.
		last := make([]Time, sources)
		for i := 0; i < mails; i++ {
			src := rng.Intn(sources)
			at := last[src] + Time(rng.Intn(3))*5*Microsecond
			last[src] = at
			sends = append(sends, tieSend{
				src:   src,
				send:  at,
				extra: Time(rng.Intn(2)) * 5 * Microsecond,
				label: fmt.Sprintf("m%d", i),
			})
		}
		want := strings.Join(expectTieOrder(sends), " ")
		for _, workers := range []int{1, 4} {
			got := strings.Join(runTieBreak(t, sources, workers, sends), " ")
			if got != want {
				t.Fatalf("workers=%d: delivery order\n got %s\nwant %s", workers, got, want)
			}
		}
	})
}
