package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/tinge"
)

// parseNetwork reads a named edge TSV as written by Network.WriteTSV.
// It rejects unknown genes, self loops, unsorted or repeated pairs, and
// weights that do not parse: a served or written network must be exactly
// what WriteTSV emits.
func parseNetwork(b []byte, genes []string) (*tinge.Network, error) {
	index := make(map[string]int, len(genes))
	for i, g := range genes {
		index[g] = i
	}
	net := tinge.NewNetwork(len(genes))
	sc := bufio.NewScanner(bytes.NewReader(b))
	lastI, lastJ := -1, -1
	for line := 1; sc.Scan(); line++ {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 3 {
			return nil, fmt.Errorf("line %d: %d fields", line, len(f))
		}
		i, okI := index[f[0]]
		j, okJ := index[f[1]]
		if !okI || !okJ || i >= j {
			return nil, fmt.Errorf("line %d: bad pair %q %q", line, f[0], f[1])
		}
		if i < lastI || (i == lastI && j <= lastJ) {
			return nil, fmt.Errorf("line %d: pairs out of order", line)
		}
		w, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		net.AddEdge(i, j, w)
		lastI, lastJ = i, j
	}
	return net, sc.Err()
}

// f1 scores a named edge TSV against the generator's truth set.
func f1(b []byte, data *tinge.Dataset) (float64, error) {
	net, err := parseNetwork(b, data.Genes)
	if err != nil {
		return 0, err
	}
	return net.ScoreAgainst(data.TrueEdgeSet()).F1, nil
}
