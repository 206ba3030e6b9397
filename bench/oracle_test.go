package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smallRun is a smoke-scale run: the small shapes, a fixed number of
// rounds in place of a run time.
func smallRun(t *testing.T, seed uint64, rounds int) config {
	return config{seed: seed, rounds: rounds, small: true, dir: t.TempDir()}
}

func mustFind(t *testing.T, name string) *workloadDef {
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// corruptLargestBlob flips one byte in the middle of the largest file
// under dir/files: the parameters of a chain root.
func corruptLargestBlob(t *testing.T, dir string) {
	var path string
	var size int64
	err := filepath.WalkDir(filepath.Join(dir, "files"), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil && info.Size() > size {
			path, size = p, info.Size()
		}
		return err
	})
	if err != nil || path == "" {
		t.Fatalf("no blob to corrupt under %s: %v", dir, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, size/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, size/2); err != nil {
		t.Fatal(err)
	}
}

// The oracle is not vacuous: one damaged blob makes operations fail, the
// failure ratio positive and the command's exit code non-zero.
func TestCorruptBlobFailsTheRun(t *testing.T) {
	cfg := smallRun(t, 1, 1)
	cfg.afterSetup = func(dir string) { corruptLargestBlob(t, dir) }
	rec, err := runUntraced(mustFind(t, "delta-chain-local"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed == 0 || rec.Correct {
		t.Fatalf("failed = %d, correct = %v after corrupting a chain root", rec.Failed, rec.Correct)
	}
	if ratio := float64(rec.Failed) / float64(rec.Attempted); ratio <= 0 {
		t.Errorf("failed_ops_ratio = %v, want > 0", ratio)
	}
	if rec.FirstErr == "" {
		t.Error("the first failure was not recorded")
	}
	if code := printSet(&report{Runs: []runRecord{rec}}); code == 0 {
		t.Error("exit code 0 for a run with failed operations")
	}

	clean, err := runUntraced(mustFind(t, "delta-chain-local"), smallRun(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed != 0 || !clean.Correct {
		t.Errorf("the same run without the corruption failed %d operations: %s", clean.Failed, clean.FirstErr)
	}
}

// tracedPass runs one traced pass of a smoke-scale run and returns its op
// sequence with the columns that must repeat exactly on a one-client
// workload.
func tracedPass(t *testing.T, w *workloadDef, seed uint64) ([]string, map[string]float64) {
	var ops []string
	cfg := smallRun(t, seed, 1)
	cfg.schedule = &ops
	in, _, err := setUp(w, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := measure(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("%d operations failed: %v", p.failed, p.firstErr)
	}
	m := inSitu(in, p, p, nil)
	if err := tearDown(in); err != nil {
		t.Fatal(err)
	}
	cols := map[string]float64{"storage_ratio": float64(p.stored) / float64(p.full)}
	for _, name := range []string{"docdb.ops_per_save", "docdb.ops_per_recover", "filestore.write_mb_per_save", "filestore.calls_per_recover"} {
		cols[name] = m[name].Value
	}
	return ops, cols
}

// The same seed gives the same inputs: the op sequence of a one-client
// workload repeats, and so do the columns that count instead of timing.
func TestSeedFixesScheduleAndExactColumns(t *testing.T) {
	for _, name := range []string{"snapshot-local", "delta-chain-local", "mixed-adaptive-local"} {
		t.Run(name, func(t *testing.T) {
			w := mustFind(t, name)
			a, x := tracedPass(t, w, 7)
			b, y := tracedPass(t, w, 7)
			other, _ := tracedPass(t, w, 8)
			if len(a) == 0 || !reflect.DeepEqual(a, b) {
				t.Errorf("seed 7 gave two op sequences:\n%v\n%v", a, b)
			}
			if reflect.DeepEqual(a, other) {
				t.Errorf("seeds 7 and 8 gave the same op sequence: %v", a)
			}
			if !reflect.DeepEqual(x, y) {
				t.Errorf("exact columns differ between two runs of seed 7:\n%v\n%v", x, y)
			}
			for name, v := range x {
				if v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}
