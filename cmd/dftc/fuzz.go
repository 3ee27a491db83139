package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dft/internal/fuzzdiff"
	"dft/internal/telemetry"
)

// cmdFuzz runs the differential fuzzer from the command line: each
// seed generates a circuit, lints it, and cross-checks the compiled
// kernel at every execution width against the interpreter, then every
// fault-simulation backend and the deductive reference against the
// baseline oracle. The first divergence stops the run and prints a replayable
// repro; a clean sweep exits 0.
func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	rounds := fs.Int("rounds", 100, "fuzz seeds 1..N")
	seeds := fs.String("seeds", "", "comma-separated explicit seeds (overrides -rounds; use to replay a repro)")
	patterns := fs.Int("patterns", 64, "random patterns per round")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("fuzz takes no positional arguments")
	}
	list, err := fuzzSeedList(*seeds, *rounds)
	if err != nil {
		return err
	}
	var div *fuzzdiff.Divergence
	ran := 0
	for _, seed := range list {
		ran++
		if d := fuzzdiff.Round(fuzzdiff.ShapeConfig(seed), seed, fuzzdiff.RoundOptions{Patterns: *patterns}); d != nil {
			div = d
			break
		}
	}
	nDiv := 0
	if div != nil {
		nDiv = 1
	}
	if *jsonOut {
		rep := telemetry.NewReport("dftc", "fuzz", "")
		rep.Config = map[string]any{
			"rounds":   *rounds,
			"seeds":    *seeds,
			"patterns": *patterns,
			"configs":  len(fuzzdiff.Matrix()),
		}
		rep.Results = map[string]any{
			"rounds":      ran,
			"divergences": nDiv,
		}
		if div != nil {
			rep.Results["repro"] = div.Repro()
			rep.Results["seed"] = div.Seed
		}
		if err := rep.Finish(telemetry.Default()).WriteJSON(os.Stdout); err != nil {
			return err
		}
		if div != nil {
			return fmt.Errorf("divergence at seed %d", div.Seed)
		}
		return nil
	}
	if div != nil {
		fmt.Print(div.Repro())
		return fmt.Errorf("divergence at seed %d after %d rounds", div.Seed, ran)
	}
	fmt.Printf("fuzz: %d rounds across %d configurations, 0 divergences\n", ran, len(fuzzdiff.Matrix()))
	return nil
}

// fuzzSeedList resolves the -seeds/-rounds flags into the seed
// sequence to run.
func fuzzSeedList(seeds string, rounds int) ([]int64, error) {
	if seeds != "" {
		var list []int64
		for _, s := range strings.Split(seeds, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad seed %q in -seeds", s)
			}
			list = append(list, v)
		}
		return list, nil
	}
	if rounds < 1 {
		return nil, fmt.Errorf("-rounds must be positive, got %d", rounds)
	}
	list := make([]int64, rounds)
	for i := range list {
		list[i] = int64(i + 1)
	}
	return list, nil
}
