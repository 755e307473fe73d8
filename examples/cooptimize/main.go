// Co-optimization: the paper's §6 flow as an application. Fits the
// regression IR-drop model for the off-chip stacked DDR3 from R-Mesh
// samples, then walks the alpha tradeoff from pure-cost to pure-IR and
// prints the winning configuration at each point.
package main

import (
	"fmt"
	"log"

	"pdn3d"
	"pdn3d/internal/opt"
)

func main() {
	log.SetFlags(0)

	bench, err := pdn3d.LoadBenchmark("ddr3-off")
	if err != nil {
		log.Fatal(err)
	}
	o := &opt.Optimizer{
		Bench:     bench,
		MeshPitch: 0.4, // coarse mesh keeps the sampling pass interactive
	}
	fmt.Println("sampling the design space with the R-Mesh and fitting regressions...")
	if err := o.FitModels(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d R-Mesh solves; worst fit: RMSE %.4f (log-mV), R^2 %.5f\n\n",
		o.FitSolves, o.FitRMSE, o.FitR2)

	fmt.Printf("%-6s %-52s %10s %10s %6s\n", "alpha", "best configuration", "model(mV)", "rmesh(mV)", "cost")
	for _, alpha := range []float64{0, 0.1, 0.3, 0.5, 0.7, 1.0} {
		res, err := o.Best(alpha)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6.1f %-52s %10.2f %10.2f %6.2f\n",
			alpha, res.Cand.String(), res.PredIRmV, res.MeasIRmV, res.Cost)
	}
	base, err := o.Baseline()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-52s %10.2f %10.2f %6.2f\n", "base", base.Cand.String(),
		base.PredIRmV, base.MeasIRmV, base.Cost)
	fmt.Println("\npaper (Table 9, off-chip): alpha 0.3 picks edge TSVs + F2F at ~23 mV / 0.37 cost;")
	fmt.Println("packaging options (F2F, wire bonding) buy IR reduction cheaply, extra TSVs do not.")
}
