package workloads

import (
	"fmt"

	"doublechecker/internal/vm"
)

// SCC-stress workloads: synthetic programs whose imprecise dependence graphs
// collapse into many large strongly connected components. The paper's suite
// mostly produces small, sparse SCCs (Table 3); these generators instead
// maximize SCC size and count so PCD sees a steady stream of substantial
// replays. Each one partitions time into epochs
// over distinct objects: dependence edges never leave an epoch's objects and
// per-thread program order only points forward, so every epoch contributes
// its own SCCs and the component count scales with the epoch count.

func init() {
	registerStress("sccring", "epoch chain of unlocked counter ping-pong: one dense SCC per epoch", buildSCCRing)
	registerStress("sccmesh", "two hot fields per epoch plus lock ping-pong: the largest SCCs", buildSCCMesh)
	registerStress("sccweb", "writers racing readers that fold into the component via their stat slots", buildSCCWeb)
}

// buildSCCRing: T threads hammer one unlocked counter per epoch with
// read-compute-write rounds. Interleaved read/read...write/write pairs form
// two-cycles, and overlapping two-cycles chain transitively, so each epoch
// melts into one large SCC.
func buildSCCRing(scale float64) *Built {
	g := newGen("sccring", 801, scale)
	const threads = 4
	epochs := g.n(6)
	rounds := g.n(5)

	var bumps []*vm.MethodBuilder
	var racy []string
	for e := 0; e < epochs; e++ {
		counter := g.b.Object()
		name := fmt.Sprintf("bumpEpoch%d", e)
		mb := g.b.Method(name)
		mb.Read(counter, 0).Compute(6).Write(counter, 0)
		bumps = append(bumps, mb)
		racy = append(racy, name)
	}
	for t := 0; t < threads; t++ {
		scratch := g.b.Object()
		main := g.b.Method(fmt.Sprintf("ringWorker%d", t))
		for e := 0; e < epochs; e++ {
			for r := 0; r < rounds; r++ {
				main.Call(bumps[e])
				g.localBurst(main, scratch, 2, 1)
			}
		}
		g.b.Thread(main)
	}
	return g.built(nil, racy, true, 0.4)
}

// buildSCCMesh: like sccring but each epoch's transaction touches two hot
// fields with compute between every access — four chances per transaction to
// interleave — and a lock-protected sibling method drags additional
// (innocent) transactions into each component through lock ping-pong.
func buildSCCMesh(scale float64) *Built {
	g := newGen("sccmesh", 802, scale)
	const threads = 4
	epochs := g.n(5)
	rounds := g.n(4)

	var mixes, tallies []*vm.MethodBuilder
	var racy []string
	for e := 0; e < epochs; e++ {
		hot := g.b.Object()
		lock := g.b.Object()
		ledger := g.b.Object()
		name := fmt.Sprintf("mixEpoch%d", e)
		mb := g.b.Method(name)
		mb.Read(hot, 0).Compute(4).Write(hot, 0).Compute(4).Read(hot, 1).Compute(4).Write(hot, 1)
		mixes = append(mixes, mb)
		racy = append(racy, name)
		tb := g.b.Method(fmt.Sprintf("tallyEpoch%d", e))
		tb.Acquire(lock).Read(ledger, 0).Write(ledger, 0).Release(lock)
		tallies = append(tallies, tb)
	}
	for t := 0; t < threads; t++ {
		main := g.b.Method(fmt.Sprintf("meshWorker%d", t))
		for e := 0; e < epochs; e++ {
			for r := 0; r < rounds; r++ {
				main.Call(mixes[e])
				main.Call(tallies[e])
			}
		}
		g.b.Thread(main)
	}
	return g.built(nil, racy, true, 0.4)
}

// buildSCCWeb: per epoch, two writer threads race an unlocked gauge while
// two reader threads consult it and then update their own (contended) stat
// slot. The read pulls each reader transaction into the writers' component;
// the stat-slot write gives the component edges back out through the
// readers, webbing all four threads' transactions together.
func buildSCCWeb(scale float64) *Built {
	g := newGen("sccweb", 803, scale)
	epochs := g.n(6)
	rounds := g.n(4)

	var writes, reads []*vm.MethodBuilder
	var racy []string
	for e := 0; e < epochs; e++ {
		gauge := g.b.Object()
		stats := g.b.Object()
		wname := fmt.Sprintf("postGauge%d", e)
		wb := g.b.Method(wname)
		wb.Read(gauge, 0).Compute(5).Write(gauge, 0)
		writes = append(writes, wb)
		rname := fmt.Sprintf("pollGauge%d", e)
		rb := g.b.Method(rname)
		rb.Read(gauge, 0).Compute(5).Read(stats, 0).Write(stats, 0)
		reads = append(reads, rb)
		racy = append(racy, wname, rname)
	}
	for t := 0; t < 4; t++ {
		main := g.b.Method(fmt.Sprintf("webWorker%d", t))
		for e := 0; e < epochs; e++ {
			for r := 0; r < rounds; r++ {
				if t < 2 {
					main.Call(writes[e])
				} else {
					main.Call(reads[e])
				}
				main.Compute(3)
			}
		}
		g.b.Thread(main)
	}
	return g.built(nil, racy, true, 0.4)
}
