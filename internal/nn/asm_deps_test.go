package nn

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// VGATHERDPS merges the gathered lanes into its destination under the
// mask, so the instruction reads the destination: a gather into a
// register some earlier arithmetic wrote cannot start before that
// arithmetic retires, and a sweep whose gathers all land in one register
// runs as a latency chain instead of at the load ports' rate (the dX
// gather sweep ran 1.6x off the host's gather rate that way).
// The rule the kernels in *_amd64.s follow, checked here on their
// source text because no output bit can show a lost cycle:
//
//   - the last write to a gather's destination before the gather is
//     VPXOR d, d, d — a zeroing idiom the renamer resolves without
//     waiting — with no label in between (a jump could skip it);
//   - the gathers between two labels — one loop body — have pairwise
//     distinct destination and mask registers.

var vecReg = regexp.MustCompile(`^[XY]([0-9]+)$`)

// asmGather is one gather instruction: its source line, and the line
// of the VPXOR that zeroes its destination (-1 when bad says why not).
type asmGather struct {
	line, zeroedAt int
	bad            string
}

// checkGathers applies the two rules to the text of a Go assembly file.
func checkGathers(src string) (gathers []asmGather) {
	type inst struct {
		line int
		op   string
		args []string // vector registers as their number, anything else verbatim
	}
	var body []inst // since the last TEXT; a label is an inst with op ""
	for n, l := range strings.Split(src, "\n") {
		if i := strings.Index(l, "//"); i >= 0 {
			l = l[:i]
		}
		l = strings.TrimSpace(l)
		switch {
		case l == "" || strings.HasPrefix(l, "#"):
			continue
		case strings.HasPrefix(l, "TEXT"):
			body = body[:0]
			continue
		case strings.HasSuffix(l, ":"):
			body = append(body, inst{line: n + 1})
			continue
		}
		op, rest, _ := strings.Cut(l, " ")
		in := inst{line: n + 1, op: op}
		for _, a := range strings.Split(rest, ",") {
			a = strings.TrimSpace(a)
			if m := vecReg.FindStringSubmatch(a); m != nil {
				a = "v" + m[1]
			}
			in.args = append(in.args, a)
		}
		if isGather(op) && len(in.args) == 3 {
			g := asmGather{line: in.line, zeroedAt: -1}
			mask, dst := in.args[0], in.args[2]
			for j := len(body) - 1; g.bad == "" && g.zeroedAt < 0; j-- {
				switch {
				case j < 0:
					g.bad = "destination is never written before the gather"
				case body[j].op == "":
					g.bad = "a label sits between the destination's last write and the gather"
				case body[j].args[len(body[j].args)-1] != dst:
				case body[j].op == "VPXOR" && body[j].args[0] == dst && body[j].args[1] == dst:
					g.zeroedAt = body[j].line
				default:
					g.bad = fmt.Sprintf("destination was last written by %s on line %d, not zeroed", body[j].op, body[j].line)
				}
			}
			for j := len(body) - 1; g.bad == "" && j >= 0 && body[j].op != ""; j-- {
				if isGather(body[j].op) && (body[j].args[2] == dst || body[j].args[0] == mask) {
					g.bad = fmt.Sprintf("shares a destination or mask register with the gather on line %d", body[j].line)
				}
			}
			gathers = append(gathers, g)
		}
		body = append(body, in)
	}
	return gathers
}

// isGather reports whether op is a float (VGATHER*) or integer
// (VPGATHER*) gather.
func isGather(op string) bool {
	return strings.HasPrefix(op, "VGATHER") || strings.HasPrefix(op, "VPGATHER")
}

// TestGathersHaveNoFalseDependency holds every *_amd64.s to the rules
// above, and mutation-checks the checker: dropping the VPXOR in front of
// any one gather must be reported.
func TestGathersHaveNoFalseDependency(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no *_amd64.s beside the test (%v)", err)
	}
	total := 0
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(buf), "\n")
		gathers := checkGathers(string(buf))
		total += len(gathers)
		for _, g := range gathers {
			if g.bad != "" {
				t.Errorf("%s:%d: %s: %s", f, g.line, strings.TrimSpace(lines[g.line-1]), g.bad)
				continue
			}
			mutant := append(append([]string{}, lines[:g.zeroedAt-1]...), lines[g.zeroedAt:]...)
			caught := false
			for _, m := range checkGathers(strings.Join(mutant, "\n")) {
				caught = caught || m.bad != ""
			}
			if !caught {
				t.Errorf("%s: dropping the VPXOR on line %d went unnoticed", f, g.zeroedAt)
			}
		}
	}
	if total == 0 {
		t.Fatal("found no gather in *_amd64.s: the parser is blind")
	}
	// Two gathers of one loop body on one destination, or on one mask.
	for _, shared := range []string{
		"TEXT ·k(SB)\nloop:\nVPXOR Y8, Y8, Y8\nVGATHERDPS Y7, (AX)(Y6*4), Y8\nVPXOR Y8, Y8, Y8\nVGATHERDPS Y5, (AX)(Y6*4), Y8\n",
		"TEXT ·k(SB)\nloop:\nVPXOR Y8, Y8, Y8\nVPXOR Y9, Y9, Y9\nVGATHERDPS Y7, (AX)(Y6*4), Y8\nVPCMPEQD Y7, Y7, Y7\nVGATHERDPS Y7, (AX)(Y6*4), Y9\n",
	} {
		if g := checkGathers(shared); len(g) != 2 || g[0].bad != "" || !strings.Contains(g[1].bad, "shares") {
			t.Errorf("shared registers went unnoticed in\n%s: %+v", shared, g)
		}
	}
}
