package detlint

import (
	"path/filepath"
	"strings"
	"testing"
)

// lintFixture lints one testdata package under a synthetic import path
// so the test controls which rule set applies.
func lintFixture(t *testing.T, dir, pkgPath string) []Finding {
	t.Helper()
	fs, err := LintDir(filepath.Join("testdata", "src", dir), pkgPath)
	if err != nil {
		t.Fatalf("LintDir(%s as %s): %v", dir, pkgPath, err)
	}
	return fs
}

func hasFinding(fs []Finding, check, fileSuffix string, line int) bool {
	for _, f := range fs {
		if f.Check == check && f.Pos.Line == line && strings.HasSuffix(f.Pos.Filename, fileSuffix) {
			return true
		}
	}
	return false
}

// TestBadFixtureFlagged is the acceptance case: a fixture with an
// unsorted map iteration (and friends) in a codegen path must fail.
func TestBadFixtureFlagged(t *testing.T) {
	fs := lintFixture(t, "badcodegen", "repro/internal/mcc")
	want := []struct {
		check string
		line  int
	}{
		{CheckMathRand, 8},   // math/rand import
		{CheckRangeMap, 18},  // for name := range regs
		{CheckMapsKeys, 26},  // slices.Collect(maps.Keys(m))
		{CheckTimeNow, 30},   // time.Now()
		{CheckSortSlice, 44}, // sort.Slice on rows[i].Cycles alone
	}
	for _, w := range want {
		if !hasFinding(fs, w.check, "bad.go", w.line) {
			t.Errorf("missing %s finding at bad.go:%d; got %v", w.check, w.line, fs)
		}
	}
	if len(fs) != len(want) {
		t.Errorf("got %d findings, want %d: %v", len(fs), len(want), fs)
	}
}

// TestCleanFixtureUnflagged: sanctioned patterns and escape hatches
// produce no findings even under the strictest rule set.
func TestCleanFixtureUnflagged(t *testing.T) {
	if fs := lintFixture(t, "cleancodegen", "repro/internal/mcc"); len(fs) != 0 {
		t.Errorf("clean fixture flagged: %v", fs)
	}
}

// TestOutOfScopeUnflagged: the same hazardous code outside the
// deterministic-output package list is none of detlint's business.
func TestOutOfScopeUnflagged(t *testing.T) {
	for _, pkg := range []string{"repro/internal/telemetry", "repro/cmd/mcrun", "other/module/pkg"} {
		if fs := lintFixture(t, "badcodegen", pkg); len(fs) != 0 {
			t.Errorf("out-of-scope package %s flagged: %v", pkg, fs)
		}
	}
}

// TestJobsTimeExempt: internal/jobs keeps rangemap/mathrand but is
// allowed wall-clock reads (scheduler timeouts).
func TestJobsTimeExempt(t *testing.T) {
	fs := lintFixture(t, "badcodegen", "repro/internal/jobs")
	if hasFinding(fs, CheckTimeNow, "bad.go", 30) {
		t.Errorf("timenow flagged in time-exempt package: %v", fs)
	}
	if !hasFinding(fs, CheckRangeMap, "bad.go", 18) {
		t.Errorf("rangemap not flagged in time-exempt package: %v", fs)
	}
}

func TestChecksFor(t *testing.T) {
	if cs := ChecksFor("repro/internal/telemetry"); cs != nil {
		t.Errorf("telemetry should be unscoped, got %v", cs)
	}
	cs := ChecksFor("repro/internal/mcc")
	for _, c := range []string{CheckRangeMap, CheckMapsKeys, CheckMathRand, CheckTimeNow, CheckSortSlice} {
		if !cs[c] {
			t.Errorf("mcc missing check %s", c)
		}
	}
	if ChecksFor("repro/internal/jobs")[CheckTimeNow] {
		t.Error("jobs should be exempt from timenow")
	}
}

// TestModuleClean lints the real module: the shipped tree must carry no
// findings (real hazards fixed, benign sites annotated).
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	fs, err := LintModule("../..")
	if err != nil {
		t.Fatalf("LintModule: %v", err)
	}
	for _, f := range fs {
		t.Errorf("module finding: %s", f)
	}
}

// TestStaleIgnoreFlagged: an escape hatch that suppresses no finding on
// its line or the next is itself a finding; one in use is not.
func TestStaleIgnoreFlagged(t *testing.T) {
	fs := lintFixture(t, "staleignore", "repro/internal/mcc")
	for _, line := range []int{15, 21} {
		if !hasFinding(fs, CheckStale, "stale.go", line) {
			t.Errorf("missing %s finding at stale.go:%d; got %v", CheckStale, line, fs)
		}
	}
	if len(fs) != 2 {
		t.Errorf("got %d findings, want 2: %v", len(fs), fs)
	}
}
