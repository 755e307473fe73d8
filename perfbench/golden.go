package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// goldenDir holds the golden tables internal/exp's tests lock down, all
// rendered at the fidelity the paper workloads run (0.5 mm, 3000
// requests).
const goldenDir = "internal/exp/testdata/golden"

// The goldens' comparison rule: numeric tokens match within 0.5 %
// relative plus 0.02 absolute; every other token must be identical.
const (
	goldenRelTol = 0.005
	goldenAbsTol = 0.02
)

// readGolden returns the golden table named id, or "" when none exists.
func readGolden(id string) (string, error) {
	b, err := os.ReadFile(filepath.Join(goldenDir, id+".txt"))
	if os.IsNotExist(err) {
		return "", nil
	}
	return string(b), err
}

// compareGolden compares a rendered table against its golden, token by
// token, and describes every mismatch (nil when the table matches).
func compareGolden(id, want, got string) []string {
	wl := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gl := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(wl) != len(gl) {
		return []string{fmt.Sprintf("%s: golden has %d lines, got %d", id, len(wl), len(gl))}
	}
	var bad []string
	for i := range wl {
		wf, gf := strings.Fields(wl[i]), strings.Fields(gl[i])
		if len(wf) != len(gf) {
			bad = append(bad, fmt.Sprintf("%s line %d: cell layout changed: %q vs %q", id, i+1, wl[i], gl[i]))
			continue
		}
		for j := range wf {
			if !tokensMatch(wf[j], gf[j]) {
				bad = append(bad, fmt.Sprintf("%s line %d token %d: golden %q, got %q", id, i+1, j+1, wf[j], gf[j]))
			}
		}
	}
	return bad
}

// tokensMatch accepts identical tokens, or two numeric tokens within the
// golden tolerance.
func tokensMatch(w, g string) bool {
	if w == g {
		return true
	}
	wv, wok := goldenNumber(w)
	gv, gok := goldenNumber(g)
	if !wok || !gok {
		return false
	}
	return math.Abs(wv-gv) <= goldenRelTol*math.Max(math.Abs(wv), math.Abs(gv))+goldenAbsTol
}

// goldenNumber parses a cell token as a number, tolerating the
// decorations the table renderers attach: parentheses, %, unit suffixes.
func goldenNumber(tok string) (float64, bool) {
	tok = strings.TrimPrefix(tok, "(")
	tok = strings.TrimSuffix(tok, ")")
	tok = strings.TrimSuffix(tok, "%")
	for _, unit := range []string{"mV", "mA", "us", "x"} {
		tok = strings.TrimSuffix(tok, unit)
	}
	v, err := strconv.ParseFloat(tok, 64)
	return v, err == nil
}

// hasErrCell reports whether a rendered table carries a failed cell.
func hasErrCell(out string) bool {
	for _, f := range strings.Fields(out) {
		if f == "ERR" {
			return true
		}
	}
	return false
}
