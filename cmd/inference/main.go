// Command inference runs the operator-graph (LLM-inference) replay study:
// every selected network replays dependency-scheduled DAGs of typed
// operators — attention, FFN/MoE, collectives, pointwise stages — whose
// edges become cross-site tensor transfers. It reports makespan, delivered
// goodput, and per-class packet counts per (network, graph, batch, seq)
// point.
//
//	inference                                    full sweep, all presets
//	inference -networks point-to-point           one network
//	inference -graphs prefill,moe-64-expert      selected presets
//	inference -batches 1,8 -seqs 16,128          custom scale grid
//	inference -graph-json layer.json             a user-supplied DAG
//	inference -csv inference.csv                 also write the CSV
//
// -quick runs the one-point-per-graph sweep pinned by the committed golden
// (harness.QuickInferenceConfig). The -j, cache, fleet and profile flags
// are the ones every command shares (internal/runflags); output is
// byte-identical at any -j, cached or not.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"macrochip/internal/harness"
	"macrochip/internal/opgraph"
	"macrochip/internal/runflags"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("inference: ")
	nets := flag.String("networks", "", "comma-separated network kinds (default: all six)")
	graphs := flag.String("graphs", "", "comma-separated graph presets: "+strings.Join(opgraph.PresetNames(), ",")+" (default: all)")
	graphJSON := flag.String("graph-json", "", "replay a user-supplied DAG from this JSON file instead of the presets")
	batches := flag.String("batches", "", "comma-separated batch sizes (default: 1,8)")
	seqs := flag.String("seqs", "", "comma-separated sequence lengths (default: 16,64)")
	mtu := flag.Int("mtu", 0, "transfer packet size in bytes (0 = the graph's own MTU, then 4096; negative is rejected)")
	jitter := flag.Float64("jitter", 0, "compute-window jitter fraction (0 = none)")
	quick := flag.Bool("quick", false, "run the golden-pinned quick sweep (one point per graph)")
	seed := flag.Int64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "also write the sweep as CSV to this file")
	rf := runflags.Register(flag.CommandLine, "inference", runflags.Fleet|runflags.Profile)
	flag.Parse()

	cfg := harness.DefaultInferenceConfig()
	if *quick {
		cfg = harness.QuickInferenceConfig()
	}
	cfg.Seed = *seed
	cfg.PacketBytes = *mtu
	cfg.JitterFrac = *jitter
	var err error
	if cfg.Networks, err = runflags.List(*nets, runflags.Network); err != nil {
		log.Fatal(err)
	}
	cfg.Graphs = runflags.Split(*graphs)
	if *graphJSON != "" {
		g, err := opgraph.LoadJSONFile(*graphJSON, cfg.Params.Grid)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Custom = g
		if cfg.Graphs == nil {
			cfg.Graphs = []string{g.Name}
		}
	}
	b, err := runflags.List(*batches, strconv.Atoi)
	if err != nil {
		log.Fatal(err)
	}
	if b != nil {
		cfg.Batches = b
	}
	q, err := runflags.List(*seqs, strconv.Atoi)
	if err != nil {
		log.Fatal(err)
	}
	if q != nil {
		cfg.SeqLens = q
	}

	runner, finish, err := rf.Start(*seed, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer finish()
	points, err := harness.InferenceStudyWith(runner, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(harness.RenderInference(points))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := harness.WriteInferenceCSV(f, points); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}
