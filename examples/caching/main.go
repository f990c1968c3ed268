// Caching demonstrates the §8 what-if the paper could not run: what if each
// Paragon I/O node had carried a block cache with write-behind and
// pattern-driven prefetch between its request queue and its RAID-3 array?
//
// It runs two sweeps, each workload once uncached and once cached:
//
//   - the three application skeletons, comparing mean read latency — ESCAT's
//     small sequential reads and HTF's record-oriented integral traffic are
//     exactly the patterns the paper's conclusions (§10) say a cache should
//     serve well;
//   - the six PFS access modes on a synthetic fixed-record workload, plus a
//     fully random read control whose working set exceeds the cache — the
//     case where a cache buys nothing.
//
// Everything is deterministic: rerunning prints byte-identical tables.
package main

import (
	"fmt"
	"log"

	iochar "repro"
)

func main() {
	log.SetFlags(0)

	ccfg := iochar.DefaultCacheConfig()
	fmt.Printf("Per-node cache: %d MB, stripe-unit blocks, write-behind, prefetch depth 4\n\n",
		ccfg.CapacityBytes>>20)

	rows, err := iochar.CacheSweep(true, ccfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(iochar.RenderCacheSweep("Applications, cached vs uncached (small scale):", rows))

	modeRows, err := iochar.ModeCacheSweep(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(iochar.RenderCacheSweep("PFS access modes, cached vs uncached (8 nodes, fixed records):", modeRows))

	fmt.Println("The random-read control's working set is far larger than the cache:")
	fmt.Println("its hit ratio and latency change should both be near zero.")
}
