// Genome: approximate similarity of DNA-like sequences on a memory-capped
// cluster.
//
// The paper's motivating workload: sequences too large for one machine's
// memory (a human genome is ~3 Gbp) need distributed similarity
// computation. This example mutates a synthetic chromosome with a
// configurable number of SNPs and indels, then compares two exact
// sequential oracles, the paper's MPC algorithm (Theorem 9), and the HSS
// baseline [20] — reporting the model quantities of Table 1 for both MPC
// runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"mpcdist"
	"mpcdist/internal/workload"
)

func main() {
	n := flag.Int("n", 20000, "chromosome length (bp)")
	mutations := flag.Int("mutations", 200, "planted mutation count")
	x := flag.Float64("x", 0.25, "MPC memory exponent")
	eps := flag.Float64("eps", 0.5, "approximation slack")
	flag.Parse()

	rng := rand.New(rand.NewSource(2024))
	ref := workload.DNA(rng, *n)
	alt := workload.PlantedDNA(rng, ref, *mutations)
	fmt.Printf("reference: %d bp, sample: %d bp, planted mutations <= %d\n\n",
		len(ref), len(alt), *mutations)

	t0 := time.Now()
	exact := mpcdist.EditDistanceFast(ref, alt, nil)
	fmt.Printf("exact (bit-parallel):        %6d         [%v]\n", exact, time.Since(t0).Round(time.Millisecond))

	t0 = time.Now()
	diag := mpcdist.EditDistanceDiagonal(ref, alt, nil)
	fmt.Printf("exact (diagonal, O(n+d^2)):  %6d         [%v]\n", diag, time.Since(t0).Round(time.Millisecond))

	p := mpcdist.MPCParams{X: *x, Eps: *eps, Seed: 1}
	t0 = time.Now()
	ours, err := mpcdist.EditDistanceMPC(ref, alt, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MPC Theorem 9 (%s regime):  %6d (%.3fx) [%v]\n",
		ours.Regime, ours.Value, float64(ours.Value)/float64(exact), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  %s\n", ours.Report)

	t0 = time.Now()
	hss, err := mpcdist.EditDistanceHSS(ref, alt, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MPC HSS baseline [20]:       %6d (%.3fx) [%v]\n",
		hss.Value, float64(hss.Value)/float64(exact), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  %s\n", hss.Report)

	fmt.Printf("\nTable 1 takeaway at n=%d, x=%.2f:\n", *n, *x)
	fmt.Printf("  machines:      ours %5d  vs  [20] %5d  (%.1fx fewer)\n",
		ours.Report.MaxMachines, hss.Report.MaxMachines,
		float64(hss.Report.MaxMachines)/float64(ours.Report.MaxMachines))
	fmt.Printf("  total memory:  ours %5.1f MW vs  [20] %5.1f MW (machines x words)\n",
		float64(ours.Report.MaxMachines)*float64(ours.Report.MaxWords)/1e6,
		float64(hss.Report.MaxMachines)*float64(hss.Report.MaxWords)/1e6)
}
