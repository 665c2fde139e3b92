package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// exposition is one scrape of a Prometheus text endpoint: series key
// (metric name plus its label set, verbatim) → sample value.
type exposition map[string]float64

// parseExposition reads the Prometheus text format. Comment and blank
// lines are skipped; timestamps, which rrsd never emits, are rejected
// rather than misread as values.
func parseExposition(r io.Reader) (exposition, error) {
	out := make(exposition)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may contain spaces, so split after the label set.
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexByte(line, ' ')
		} else {
			cut++
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics line %d: %q: no value", n, line)
		}
		key := line[:cut]
		fields := strings.Fields(line[cut:])
		if len(fields) != 1 {
			return nil, fmt.Errorf("metrics line %d: %q: want one value", n, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// delta returns after[key] − before[key] for a counter; a series absent
// from a scrape counts as 0 (rrsd emits labelled series lazily).
func delta(before, after exposition, key string) float64 {
	return after[key] - before[key]
}
