// Profiledpd demonstrates the paper's probability-acquisition workflow:
// "most users do not know the probability distributions ... the
// knowledge about probability distributions can be learned through
// system profiling". A usage driver (standing in for real dual-core
// application software) exercises the slave; a profiling collector taps
// the committee's executed-command stream; the learned conditional
// distribution is compared against the ground truth that drove the
// usage, then used to run an adaptive campaign.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/app"
	"repro/internal/committer"
	"repro/internal/pattern"
	"repro/internal/pfa"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/ptest"
)

func main() {
	// 1. Real usage: drive the slave with patterns drawn from the
	//    (hidden) ground-truth behaviour — Figure 5's distribution.
	truth := pfa.PCoreDistribution()
	machine, err := pfa.FromRegex(pfa.PCoreRE, truth)
	if err != nil {
		log.Fatal(err)
	}
	plat, err := platform.New(platform.Config{Factory: app.SpinFactory()})
	if err != nil {
		log.Fatal(err)
	}
	defer plat.Shutdown()

	collector := profile.NewCollector()
	collector.Attach(plat.Committee)

	rng := stats.New(2024)
	pats, err := machine.GenerateSet(rng, 12, 50, pfa.DefaultGenOptions())
	if err != nil {
		log.Fatal(err)
	}
	sources := make([][]string, len(pats))
	for i, p := range pats {
		sources[i] = p.Symbols
	}
	merged, err := pattern.Merge(sources, pattern.OpRoundRobin, nil, pattern.Options{})
	if err != nil {
		log.Fatal(err)
	}
	cmt := committer.New(plat.Client, merged, merged.PerTask(), nil, nil, plat.Now)
	plat.Master.Spawn("usage-driver", cmt.ThreadBody)
	plat.RunUntilQuiescent(5_000_000)
	fmt.Printf("profiled %d executed commands across %d tasks\n",
		collector.Commands(), len(collector.Traces()))

	// 2. Learn the conditional distribution from the observed traces.
	learned, res, err := collector.Learn(pfa.PCoreRE, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned from %d traces (%d rejected), %d transitions\n",
		res.Traces, res.RejectedTraces, res.Transitions)
	fmt.Printf("max divergence from ground truth: %.3f\n\n",
		profile.Divergence(learned, truth))

	froms := make([]string, 0, len(learned))
	for from := range learned {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	for _, from := range froms {
		syms := make([]string, 0, len(learned[from]))
		for sym := range learned[from] {
			syms = append(syms, sym)
		}
		sort.Strings(syms)
		fmt.Printf("  after %-3s:", from)
		for _, sym := range syms {
			fmt.Printf("  %s=%.2f", sym, learned[from][sym])
		}
		fmt.Println()
	}

	// 3. Use the learned distribution for adaptive testing.
	out, err := ptest.Run(ptest.Config{
		RE: ptest.PCoreRE, PD: learned,
		N: 8, S: 20, Op: ptest.OpRoundRobin, Seed: 9,
		Factory: ptest.SpinFactory(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadaptive campaign with learned PD: %d commands, coverage %s\n",
		out.CommandsIssued, out.Coverage)
	if out.Bug != nil {
		fmt.Println("FAILURE:", out.Bug)
	}
}
