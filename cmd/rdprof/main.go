// Command rdprof is the core-simulator speed gate. It times the pinned
// hot-path scenarios of bench_test.go against their baselines:
//
//	rdprof -bench-core -bench-core-out BENCH_core_speed.json
//	rdprof -check BENCH_core_speed.json
//
// -bench-core writes BENCH_core_speed.json; -check re-times the
// scenarios against a committed copy and fails on a >2x ns/op regression
// of a gated one or on any allocs/op above the committed count (the CI
// backstop). Telemetry for one scenario is `rdsim -profile DIR`.
package main

import (
	"flag"
	"fmt"
	"os"

	"rdramstream/internal/version"
)

func main() {
	benchIters := flag.Int("bench-iters", 7, "timed iterations per scenario for -bench-core and -check")
	benchCore := flag.Bool("bench-core", false, "measure core simulator speed against the pinned baselines")
	benchCoreOut := flag.String("bench-core-out", "BENCH_core_speed.json", "output file for -bench-core")
	checkCore := flag.String("check", "", "re-time the scenarios against this committed BENCH_core_speed.json and fail on a >2x ns/op regression or on allocs/op above the committed count")
	showVersion := flag.Bool("version", false, "print the version stamp and exit")
	flag.Parse()

	switch {
	case *showVersion:
		fmt.Println(version.Stamp())
	case *checkCore != "":
		checkCoreBench(*checkCore, *benchIters)
	case *benchCore:
		runCoreBench(*benchIters, *benchCoreOut)
	default:
		fmt.Fprintln(os.Stderr, "rdprof: want -bench-core or -check FILE (one scenario's telemetry is rdsim -profile DIR)")
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rdprof: "+format+"\n", args...)
	os.Exit(1)
}
