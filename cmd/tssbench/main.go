// Tssbench regenerates the tables and figures of the paper's
// evaluation (§7-§9). Each experiment prints the same rows or series
// the paper reports, plus the qualitative shape to compare against.
//
//	tssbench -run all
//	tssbench -run fig5
//	tssbench -run fig3,fig4,sp5
//
// Experiments: fig3 fig4 fig5 fig6 fig7 fig8 sp5 fig9 pool, plus the
// cachesweep ablation and the overload (admission-control) ablation,
// which fails unless it clears its bars (not in 'all'). The
// repository benchmark, `go run ./benchmark`, measures the rest.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"tss/internal/experiments"
	"tss/internal/workload"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiments (fig3..fig9, sp5, pool, cachesweep, overload) or 'all'")
		quick   = flag.Bool("quick", false, "reduced iteration counts and WAN latency for a fast pass")
		clients = flag.Int("clients", 8, "concurrent client goroutines for the pool experiment")
	)
	flag.Parse()

	all := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "sp5", "fig9", "pool"}
	var list []string
	if *run == "all" {
		list = all
	} else {
		list = strings.Split(*run, ",")
	}

	for _, name := range list {
		name = strings.TrimSpace(name)
		start := time.Now()
		out, err := runOne(name, *quick, *clients)
		if err != nil {
			log.Fatalf("tssbench: %s: %v", name, err)
		}
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func runOne(name string, quick bool, clients int) (string, error) {
	iters := 2000
	if quick {
		iters = 200
	}
	switch name {
	case "fig3":
		res, err := experiments.RunFig3(iters)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "fig4":
		res, err := experiments.RunFig4(iters / 4)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "fig5":
		res, err := experiments.RunFig5(nil)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "fig6", "fig7", "fig8":
		res, err := experiments.RunScale(name)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "sp5":
		cfg := workload.DefaultSP5()
		links := experiments.SP5Links{}
		if quick {
			cfg.Libraries, cfg.ConfigFiles, cfg.Events = 40, 20, 8
			links.WAN = quickWAN
		}
		res, err := experiments.RunSP5Table(cfg, links)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "fig9":
		res, err := experiments.RunFig9(experiments.DefaultFig9())
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "cachesweep":
		return experiments.RunCacheSweep(3, nil).Render(), nil
	case "pool":
		res, err := experiments.RunPoolBench(experiments.DefaultPoolBench(quick, clients))
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "overload":
		res, err := experiments.RunOverloadBench(experiments.DefaultOverloadBench(quick))
		if err != nil {
			return "", err
		}
		if err := res.Bars(); err != nil {
			return res.Render(), err
		}
		return res.Render(), nil
	}
	return "", fmt.Errorf("unknown experiment %q", name)
}

// quickWAN is the reduced-latency WAN profile used by -quick.
var quickWAN = experiments.QuickWAN
