// Quickstart: run the ESCAT electron-scattering skeleton at reduced scale
// and print its operation-summary table — the minimal end-to-end use of the
// public iochar API.
package main

import (
	"fmt"
	"log"

	iochar "repro"
)

func main() {
	log.SetFlags(0)

	// A small, seconds-scale study; swap in PaperStudy for the full
	// 128-node configuration from the paper.
	study := iochar.SmallStudy(iochar.ESCAT)

	report, err := iochar.Run(study)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ESCAT ran for %.2f simulated seconds and issued %d I/O operations.\n\n",
		report.Wall.Seconds(), report.Summary.Total.Count)
	for _, table := range report.Tables() {
		fmt.Println(table)
	}
	fmt.Println("Phases captured:", phaseList(report))
}

func phaseList(r *iochar.Report) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range r.Events {
		if p := e.Phase.String(); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
