// Command sfsim runs a single benchmark on a single configuration and
// prints a statistics summary.
//
// Usage:
//
//	sfsim -bench conv3d -system SF -core OOO8 -scale 0.5
//	sfsim -bench bfs -system SF -core IO4 -mesh 4x4 -link 512 -interleave 4096
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"streamfloat"
	"streamfloat/internal/config"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sfsim: ")

	var (
		bench      = flag.String("bench", "conv3d", "benchmark: "+strings.Join(streamfloat.Benchmarks(), ", "))
		sysName    = flag.String("system", "SF", "system: "+strings.Join(streamfloat.Systems(), ", "))
		coreName   = flag.String("core", "OOO8", "core: IO4, OOO4, OOO8")
		scale      = flag.Float64("scale", 0.25, "dataset scale (1.0 = calibrated full size)")
		mesh       = flag.String("mesh", "", "mesh WxH override, e.g. 4x4")
		link       = flag.Int("link", 0, "link width override in bits (128, 256, 512)")
		interleave = flag.Int("interleave", 0, "L3 NUCA interleave override in bytes")
		asJSON     = flag.Bool("json", false, "emit a JSON summary instead of text")
	)
	flag.Parse()

	core, err := config.ParseCore(strings.ToUpper(*coreName))
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := streamfloat.ConfigFor(*sysName, core)
	if err != nil {
		log.Fatal(err)
	}
	if *mesh != "" {
		if _, err := fmt.Sscanf(*mesh, "%dx%d", &cfg.MeshWidth, &cfg.MeshHeight); err != nil {
			log.Fatalf("bad -mesh %q: %v", *mesh, err)
		}
	}
	if *link != 0 {
		cfg.LinkBits = *link
	}
	if *interleave != 0 {
		cfg.L3InterleaveBytes = *interleave
	}

	res, err := streamfloat.Run(cfg, *bench, *scale)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		if err := res.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	s := res.Stats
	w := os.Stdout
	fmt.Fprintf(w, "%s on %s (scale %.2f)\n", *bench, cfg.Label(), *scale)
	fmt.Fprintf(w, "  cycles            %d\n", s.Cycles)
	fmt.Fprintf(w, "  instructions      %d (IPC %.2f)\n", s.Instructions, s.IPC())
	fmt.Fprintf(w, "  iterations        %d\n", s.Iterations)
	fmt.Fprintf(w, "  energy            %.4f J\n", s.EnergyJ)
	fmt.Fprintf(w, "  noc flit-hops     %d (utilization %.1f%%)\n",
		s.TotalFlitHops(), 100*s.NoCUtilization(res.NumLinks))
	sum := res.Summary()
	fmt.Fprintf(w, "  L1 hit rate       %.1f%%\n", 100*sum.L1HitRate)
	fmt.Fprintf(w, "  L2 hit rate       %.1f%%\n", 100*sum.L2HitRate)
	fmt.Fprintf(w, "  L3 hit rate       %.1f%%\n", 100*sum.L3HitRate)
	fmt.Fprintf(w, "  DRAM lines        %d read, %d written\n", s.DRAMReads, s.DRAMWrites)
	fmt.Fprintf(w, "  L3 requests       %v\n", s.L3Requests)
	if s.StreamsFloated > 0 {
		fmt.Fprintf(w, "  streams floated   %d (sunk %d, confluence joins %d)\n",
			s.StreamsFloated, s.StreamsSunk, s.ConfluenceGroups)
		fmt.Fprintf(w, "  stream messages   %d config, %d migrate, %d credit, %d end\n",
			s.StreamConfigs, s.StreamMigrations, s.StreamCredits, s.StreamEnds)
	}
	if s.PrefetchIssued > 0 {
		fmt.Fprintf(w, "  prefetches        %d issued, %.1f%% useful\n",
			s.PrefetchIssued, 100*s.PrefetchAccuracy())
	}
}
