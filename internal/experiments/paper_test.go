package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// paperGolden is the checked-in `repro -run all -timing=false` stdout;
// `make paper-golden` diffs a fresh run against it line by line.
const paperGolden = "testdata/paper.txt"

// paperDigests pins each experiment's text (and the pass's summary and
// surface files) by sha256. The benchmark harness checks its own pass
// against it; this package only reads it.
const paperDigests = "../../benchmark/testdata/paper.sha256"

// paperRule is the line repro prints above and below each experiment's
// "<id> — <title>" header.
const paperRule = "==============================================================\n"

// splitPaper cuts repro's stdout into each experiment's rendered text,
// by ID in print order: the lines between its header and its
// "[<id> completed]" trailer.
func splitPaper(t *testing.T, text string) (ids []string, sections map[string]string) {
	t.Helper()
	parts := strings.Split(text, paperRule)
	if len(parts) < 3 || parts[0] != "" || len(parts)%2 != 1 {
		t.Fatalf("%s: not a sequence of ruled experiment headers", paperGolden)
	}
	sections = map[string]string{}
	for i := 1; i < len(parts); i += 2 {
		id, _, ok := strings.Cut(parts[i], " — ")
		if !ok {
			t.Fatalf("%s: malformed header %q", paperGolden, parts[i])
		}
		body, ok := strings.CutSuffix(parts[i+1], "["+id+" completed]\n\n")
		if !ok {
			t.Fatalf("%s: section %s lacks its completion trailer", paperGolden, id)
		}
		if _, dup := sections[id]; dup {
			t.Fatalf("%s: section %s appears twice", paperGolden, id)
		}
		ids = append(ids, id)
		sections[id] = body
	}
	return ids, sections
}

// readPaperDigests parses a "<sha256>  <name>" file.
func readPaperDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(paperDigests)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok || len(sum) != 64 || name == "" {
			t.Fatalf("%s: malformed line %q", paperDigests, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPaperGoldenMatchesDigests keeps the paper's two references in
// step: every section of the golden text must hash to its pinned
// digest, every pinned experiment must have a section, and the sections
// come in the registry's order.
func TestPaperGoldenMatchesDigests(t *testing.T) {
	raw, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	ids, sections := splitPaper(t, string(raw))
	pinned := readPaperDigests(t)
	for _, id := range ids {
		sum := sha256.Sum256([]byte(sections[id]))
		want, ok := pinned[id]
		switch {
		case !ok:
			t.Errorf("section %s has no pinned digest", id)
		case hex.EncodeToString(sum[:]) != want:
			t.Errorf("section %s: sha256 %x, pinned %s", id, sum, want)
		}
	}
	for name := range pinned { //detlint:ignore rangemap membership checks only, order-free
		if _, ok := sections[name]; !ok && name != "summary.json" && name != "points.mcst" {
			t.Errorf("pinned experiment %s has no section", name)
		}
	}
	var registered []string
	for _, e := range All() {
		registered = append(registered, e.ID)
	}
	if strings.Join(ids, ",") != strings.Join(registered, ",") {
		t.Errorf("sections %v, registered experiments %v", ids, registered)
	}
}
