package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixturePkgs are the violation-seeding packages under testdata/src,
// loaded into the real module's type universe (so they can import
// ecsort/internal/model) and analyzed alongside it. A fixture loads
// before any fixture that imports it, so the importer reuses the
// registered package instead of type-checking a second copy.
var fixturePkgs = []string{"oracleround", "hotalloc", "shardown", "ctxflow", "registrycomplete", "deadexport", "deadexportuse"}

var (
	fixOnce     sync.Once
	fixErr      error
	fixFindings []Finding
)

// fixtureFindings loads the module plus every fixture package once and
// runs the full analyzer suite over the union.
func fixtureFindings(t *testing.T) []Finding {
	t.Helper()
	fixOnce.Do(func() {
		m, err := LoadModule("../..")
		if err != nil {
			fixErr = err
			return
		}
		for _, name := range fixturePkgs {
			if _, err := m.LoadExtra(filepath.Join("testdata", "src", name), m.Path+"/internal/analysis/testdata/src/"+name); err != nil {
				fixErr = fmt.Errorf("fixture %s: %w", name, err)
				return
			}
		}
		fixFindings, fixErr = VetModule(m)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixFindings
}

var wantRE = regexp.MustCompile(`// want ([a-z]+(?: [a-z]+)*)\s*$`)

// wantsIn parses the `// want <analyzer>...` expectation comments of
// every .go file in dir into "file:line:analyzer" keys.
func wantsIn(t *testing.T, dir string) map[string]int {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string]int)
	entries, err := os.ReadDir(abs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(abs, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, analyzer := range strings.Fields(m[1]) {
				wants[fmt.Sprintf("%s:%d:%s", filepath.Join(abs, e.Name()), i+1, analyzer)]++
			}
		}
	}
	return wants
}

// checkAgainstWants compares findings landing in dir against dir's want
// comments, exactly — unexpected and missing findings both fail. The
// "ignore" pseudo-analyzer (malformed directive reports) is checked
// separately.
func checkAgainstWants(t *testing.T, findings []Finding, dir string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, f := range findings {
		if filepath.Dir(f.Pos.Filename) != abs || f.Analyzer == "ignore" {
			continue
		}
		got[fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, f.Analyzer)]++
	}
	want := wantsIn(t, dir)
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		if got[k] != want[k] {
			t.Errorf("%s: got %d finding(s), want %d", k, got[k], want[k])
		}
	}
}

func TestFixtures(t *testing.T) {
	findings := fixtureFindings(t)
	for _, name := range fixturePkgs {
		t.Run(name, func(t *testing.T) {
			checkAgainstWants(t, findings, filepath.Join("testdata", "src", name))
		})
	}
}

// TestMalformedIgnore pins that an //ecsort:ignore without a reason is
// itself a finding and suppresses nothing.
func TestMalformedIgnore(t *testing.T) {
	findings := fixtureFindings(t)
	file, err := filepath.Abs(filepath.Join("testdata", "src", "ctxflow", "ctxflow.go"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	line := 0
	for i, l := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(l) == "//ecsort:ignore ctxflow" {
			line = i + 1
			break
		}
	}
	if line == 0 {
		t.Fatal("fixture lost its reason-less //ecsort:ignore ctxflow line")
	}
	for _, f := range findings {
		if f.Analyzer == "ignore" && f.Pos.Filename == file && f.Pos.Line == line {
			return
		}
	}
	t.Errorf("no malformed-ignore finding at %s:%d", file, line)
}

// TestAPIDocFixture runs apidoc over the standalone mini-module with its
// own go.mod and api_surface.txt.
func TestAPIDocFixture(t *testing.T) {
	dir := filepath.Join("testdata", "apidocmod")
	findings, err := Vet(dir, APIDoc)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstWants(t, findings, dir)
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(All))
	}
	two, err := ByName("hotalloc, ctxflow")
	if err != nil || len(two) != 2 || two[0] != HotAlloc || two[1] != CtxFlow {
		t.Fatalf("ByName(\"hotalloc, ctxflow\") = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(\"nosuch\") did not error")
	}
}

func TestVetLoadErrors(t *testing.T) {
	if _, err := Vet(filepath.Join("testdata", "does-not-exist")); err == nil {
		t.Fatal("Vet on a missing directory did not error")
	}
	if _, err := Vet("."); err == nil {
		// internal/analysis itself has no go.mod, so it is not a module root.
		t.Fatal("Vet on a non-module directory did not error")
	}
}

// TestDeadExportScope runs deadexport alone over a standalone
// mini-module: only exported package-level funcs and vars under
// internal/ are in scope, a generic func's instantiation keeps its
// origin alive, and a reason-less ignore suppresses nothing.
func TestDeadExportScope(t *testing.T) {
	dir := filepath.Join("testdata", "deadexportmod")
	findings, err := Vet(dir, DeadExport)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct{ name, dir string }{
		{"root", dir},
		{"internal_lib", filepath.Join(dir, "internal", "lib")},
	} {
		t.Run(sub.name, func(t *testing.T) {
			checkAgainstWants(t, findings, sub.dir)
		})
	}
	malformed := 0
	for _, f := range findings {
		if f.Analyzer == "ignore" {
			malformed++
		}
	}
	if malformed != 1 {
		t.Errorf("got %d malformed-ignore findings, want 1", malformed)
	}
}

// TestAnalyzerSuite pins the suite's membership: seven analyzers with
// distinct names, each resolvable by ByName.
func TestAnalyzerSuite(t *testing.T) {
	if len(All) != 7 {
		t.Fatalf("len(All) = %d, want 7", len(All))
	}
	seen := map[string]bool{}
	for _, a := range All {
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		got, err := ByName(a.Name)
		if err != nil || len(got) != 1 || got[0] != a {
			t.Errorf("ByName(%q) = %v, err %v", a.Name, got, err)
		}
	}
	if !seen[DeadExport.Name] {
		t.Error("deadexport is not in All")
	}
}
