package experiments

// Golden outputs: the quick-scale rendered tables and figures of E1–E17 at
// seed 42 are pinned byte for byte under testdata/golden/, for one and for
// four trial workers. Any change to a driver, a kernel or a label path
// that moves a single digit fails here. A change that is meant to move the
// numbers regenerates the files with
//
//	go test ./internal/experiments -run TestGoldenQuickOutputs -update
//
// and says why in its change notes.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

const goldenSeed = 42

func TestGoldenQuickOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every driver at quick scale")
	}
	for _, e := range All() {
		if e.ID == "E18" {
			continue // the threshold sweep has its own pinned tests (e18_test.go)
		}
		for _, workers := range []int{1, 4} {
			e, workers := e, workers
			t.Run(fmt.Sprintf("%s/workers=%d", e.ID, workers), func(t *testing.T) {
				t.Parallel()
				got := renderAll(e.Run(Config{Seed: goldenSeed, Quick: true, Workers: workers}))
				path := filepath.Join("testdata", "golden", fmt.Sprintf("%s.w%d.txt", e.ID, workers))
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if got != string(want) {
					t.Fatalf("%s with Workers=%d differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
						e.ID, workers, path, got, want)
				}
			})
		}
	}
}
