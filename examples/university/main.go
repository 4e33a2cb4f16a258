// University reproduces the paper's Section 6 experiment on the synthetic
// faculty cohort: the level sweep behind Figures 4–7 and the FRED optimum of
// Figure 8, printed as aligned series.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
)

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 42, "cohort and corpus seed")
	n := flag.Int("n", 40, "number of faculty")
	maxK := flag.Int("maxk", 16, "largest anonymization level to sweep")
	flag.Parse()

	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: *seed, N: *n})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Cohort: %d faculty, salaries in [$%.0f, $%.0f], %d web pages\n\n",
		sc.P.NumRows(), sc.SensitiveRange.Lo, sc.SensitiveRange.Hi, sc.Corpus.Len())

	levels, err := sc.Sweep(2, *maxK, nil, nil, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Level sweep (Figures 4-7):")
	fmt.Println("   k     P∘P' (before)      P∘P̂ (after)        gain G      utility U")
	for _, lr := range levels {
		fmt.Printf("  %2d   %14.5g   %14.5g   %11.5g   %10.6f\n",
			lr.K, lr.Before, lr.After, lr.Gain, lr.Utility)
	}

	res, err := sc.RunFRED(repro.FREDOptions{MaxK: *maxK})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFRED solution space (Figure 8):")
	fmt.Println("   k        H")
	for i, li := range res.Candidates {
		fmt.Printf("  %2d   %8.4f\n", res.Levels[li].K, res.H[i])
	}
	fmt.Printf("\nOptimal anonymization level: k = %d (H = %.4f)\n", res.OptimalK, res.Hmax)
	fmt.Println("The optimal release keeps identifiers, generalizes reviews, suppresses salary.")
}
