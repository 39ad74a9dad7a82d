// Command ajdlint runs the repository's invariant analyzers (internal/lint)
// over a set of packages and exits non-zero when any enforced diagnostic
// survives suppression.
//
// Usage:
//
//	ajdlint [-list] [-only name[,name]] [packages...]
//
// Packages default to ./... relative to the current directory. Diagnostics
// print one per line as file:line:col: analyzer: message.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ajdloss/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ajdlint [-list] [-only name,...] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var picked []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				picked = append(picked, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "ajdlint: unknown analyzer %q (see ajdlint -list)\n", name)
			os.Exit(2)
		}
		analyzers = picked
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ajdlint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.LoadPackages(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ajdlint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ajdlint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ajdlint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}
