package mcc_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/prog"
	"repro/internal/synth"
)

// outputDigests pins the compiler's output for every seed benchmark on
// every paper configuration plus D16+, and for synth seeds
// DeriveSeed(7, class, 0..4) of every class on D16 and DLXe. Each line is
//
//	<sha256 of GenAsm's text> <sha256 of the image> <program> <config>
//
// where the image digest covers the fields the lab's result cache keys
// on (Enc, Cmp8, Entry, BSS, Text, Data). A change to the compiler or the
// assembler that moves any byte of either shows up here as the program,
// the config and the digest that moved. After an intended output change,
// regenerate the file with
//
//	go test ./internal/mcc/ -run '^TestCompilerOutputsMatchDigests$' 2>&1 | sed -n 's/^.*outputs.sha256: //p' > internal/mcc/testdata/outputs.sha256
//
// and review its diff.
const outputDigests = "testdata/outputs.sha256"

type outputCase struct {
	name, src string
	spec      *isa.Spec
}

func outputCases(t *testing.T) []outputCase {
	t.Helper()
	var cases []outputCase
	specs := append(isa.PaperConfigs(), isa.D16Plus())
	for _, b := range bench.All() {
		for _, spec := range specs {
			cases = append(cases, outputCase{b.Name, b.Source, spec})
		}
	}
	for _, class := range synth.Classes() {
		for i := 0; i < 5; i++ {
			p, err := synth.Generate(class, synth.DeriveSeed(7, class, i))
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
				cases = append(cases, outputCase{p.Name, p.Source, spec})
			}
		}
	}
	return cases
}

// imageDigest hashes every execution-relevant image field: the
// encoding, the entry state and the text and data segments.
func imageDigest(img *prog.Image) string {
	h := sha256.New()
	var buf [4]byte
	word := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	cmp8 := uint32(0)
	if img.Cmp8 {
		cmp8 = 1
	}
	word(uint32(img.Enc))
	word(cmp8)
	word(img.Entry)
	word(img.BSS)
	word(uint32(len(img.Text)))
	h.Write(img.Text)
	word(uint32(len(img.Data)))
	h.Write(img.Data)
	return hex.EncodeToString(h.Sum(nil))
}

func TestCompilerOutputsMatchDigests(t *testing.T) {
	want := map[string][2]string{}
	f, err := os.Open(outputDigests)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) != 4 || len(fs[0]) != 64 || len(fs[1]) != 64 {
			t.Fatalf("%s: malformed line %q", outputDigests, sc.Text())
		}
		want[fs[2]+" "+fs[3]] = [2]string{fs[0], fs[1]}
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var lines []string
	failed := false
	for _, c := range outputCases(t) {
		key := c.name + " " + c.spec.Name
		text, _, err := mcc.GenAsm(c.name+".mc", c.src, c.spec)
		if err != nil {
			t.Fatalf("GenAsm %s: %v", key, err)
		}
		comp, err := mcc.Compile(c.name+".mc", c.src, c.spec)
		if err != nil {
			t.Fatalf("Compile %s: %v", key, err)
		}
		sum := sha256.Sum256([]byte(text))
		got := [2]string{hex.EncodeToString(sum[:]), imageDigest(comp.Image)}
		lines = append(lines, fmt.Sprintf("%s %s %s", got[0], got[1], key))
		w, ok := want[key]
		delete(want, key)
		if !ok {
			t.Errorf("%s on %s: not pinned in %s", c.name, c.spec.Name, outputDigests)
			failed = true
		}
		for i, what := range []string{"GenAsm text", "image"} {
			if ok && w[i] != got[i] {
				t.Errorf("%s on %s: %s sha256 %s, pinned %s", c.name, c.spec.Name, what, got[i], w[i])
				failed = true
			}
		}
	}
	for key := range want {
		t.Errorf("%s pins %s, which no case produces", outputDigests, key)
		failed = true
	}
	if failed {
		for _, l := range lines {
			t.Logf("outputs.sha256: %s", l)
		}
	}
}
