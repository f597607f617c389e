// Command bench is the repository benchmark. It drives four workloads
// (sweep, search, serve, campaign) from outside the program: it calls
// only the public functions of the sim, solver, baselines, cost, fault,
// distrib, serve, engine and collective packages, and the real
// tempserve binary, and it checks every output it times.
//
//	bench run -workload sweep -seed 1 -seconds 15 -trace 0
//	bench trace -workload search -seed 2
//	bench compare before.json after.json
//
// bench/run.sh builds the harness and tempserve from source and runs
// it from the repository root; see README.md for the metric glossary.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "trace":
		err = cmdRun(os.Args[2:], true)
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "child":
		err = cmdChild()
	case "worker":
		err = cmdWorker()
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bench run     [-workload sweep|search|serve|campaign|all] [-seed N] [-seconds S] [-trace 0|1] [-smoke] [-json FILE]
  bench trace   -workload W [-seed N] [-seconds S] [-spans FILE]
  bench compare [-bounds BENCHMARK.json] A.json B.json`)
	os.Exit(2)
}
