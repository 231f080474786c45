// Command gsbvet runs the project's static-analysis suite (internal/lint)
// over the tree: determinism, hotpath, statshandle, annotations. It is
// the mechanical enforcement of the engine contracts documented in
// docs/static-analysis.md, and it builds from the tree with no network
// fetch — `go run ./cmd/gsbvet ./...` is all CI needs.
//
// Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gsbvet [-list] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the gsbvet analyzers over the given go-list patterns (default ./...).\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s", a.Name, a.Doc)
			if a.Suppressor != "" {
				fmt.Printf(" [suppress: //gsb:%s <reason>]", a.Suppressor)
			}
			fmt.Println()
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbvet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := lint.LoadPatterns(wd, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbvet: %v\n", err)
		os.Exit(2)
	}

	found := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsbvet: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Println(d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "gsbvet: %d finding(s)\n", found)
		os.Exit(1)
	}
}
