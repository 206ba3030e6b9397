package merkle

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
)

func leafHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func makeLeaves(n int, changedFrom int, version string) []Leaf {
	leaves := make([]Leaf, n)
	for i := range leaves {
		content := fmt.Sprintf("layer-%d-v0", i)
		if i >= changedFrom {
			content = fmt.Sprintf("layer-%d-%s", i, version)
		}
		leaves[i] = Leaf{Name: fmt.Sprintf("layer%d", i), Hash: leafHash(content)}
	}
	return leaves
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("expected error for empty leaves")
	}
}

func TestSingleLeaf(t *testing.T) {
	tr, err := Build([]Leaf{{Name: "only", Hash: leafHash("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root() != leafHash("x") {
		t.Fatal("single-leaf root must equal the leaf hash")
	}
	if len(tr.levels) != 1 || tr.NumLeaves() != 1 {
		t.Fatalf("bad height/leaves: %d/%d", len(tr.levels), tr.NumLeaves())
	}
}

func TestRootEqualityMatchesParameterEquality(t *testing.T) {
	a, _ := Build(makeLeaves(16, 16, ""))
	b, _ := Build(makeLeaves(16, 16, ""))
	c, _ := Build(makeLeaves(16, 15, "v1"))
	if a.Root() != b.Root() {
		t.Fatal("identical leaves must give identical roots")
	}
	if a.Root() == c.Root() {
		t.Fatal("different leaves must give different roots")
	}
}

// Figure 4 of the paper: with the last two of 8 layers changed, finding the
// changed layers takes 7 comparisons; for 64 layers 13; for 128 layers 15.
func TestFigure4ComparisonCounts(t *testing.T) {
	cases := []struct {
		layers, wantComparisons int
	}{
		{8, 7},
		{64, 13},
		{128, 15},
	}
	for _, tc := range cases {
		base, err := Build(makeLeaves(tc.layers, tc.layers, ""))
		if err != nil {
			t.Fatal(err)
		}
		derived, err := Build(makeLeaves(tc.layers, tc.layers-2, "v1"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Diff(base, derived)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Changed) != 2 {
			t.Fatalf("%d layers: changed = %v, want last 2", tc.layers, res.Changed)
		}
		if res.Changed[0] != fmt.Sprintf("layer%d", tc.layers-2) {
			t.Fatalf("%d layers: wrong changed layer %v", tc.layers, res.Changed)
		}
		if res.Comparisons != tc.wantComparisons {
			t.Fatalf("%d layers: %d comparisons, want %d", tc.layers, res.Comparisons, tc.wantComparisons)
		}
	}
}

func TestDiffIdenticalTreesIsOneComparison(t *testing.T) {
	a, _ := Build(makeLeaves(32, 32, ""))
	b, _ := Build(makeLeaves(32, 32, ""))
	res, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 0 || res.Comparisons != 1 {
		t.Fatalf("identical trees: changed=%v comparisons=%d", res.Changed, res.Comparisons)
	}
}

func TestDiffAllChanged(t *testing.T) {
	a, _ := Build(makeLeaves(8, 8, ""))
	b, _ := Build(makeLeaves(8, 0, "v1"))
	res, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 8 {
		t.Fatalf("changed = %v, want all 8", res.Changed)
	}
	// Full binary tree over 8 leaves has 15 nodes; all must be compared.
	if res.Comparisons != 15 {
		t.Fatalf("comparisons = %d, want 15", res.Comparisons)
	}
}

func TestDiffLeafCountMismatch(t *testing.T) {
	a, _ := Build(makeLeaves(4, 4, ""))
	b, _ := Build(makeLeaves(8, 8, ""))
	if _, err := Diff(a, b); err == nil {
		t.Fatal("expected error for mismatched leaf counts")
	}
}

func TestOddLeafCounts(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9, 13, 100, 161} {
		base, err := Build(makeLeaves(n, n, ""))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Change only the last leaf (which rides promotions in odd trees).
		derived, err := Build(makeLeaves(n, n-1, "v1"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Diff(base, derived)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Changed) != 1 || res.Changed[0] != fmt.Sprintf("layer%d", n-1) {
			t.Fatalf("n=%d: changed = %v", n, res.Changed)
		}
		if res.Comparisons < 1 || res.Comparisons > 2*n {
			t.Fatalf("n=%d: implausible comparison count %d", n, res.Comparisons)
		}
	}
}

// Property: for any leaf count and any single changed leaf index, Diff finds
// exactly that leaf.
func TestDiffFindsSingleChangeProperty(t *testing.T) {
	f := func(nRaw, idxRaw uint8) bool {
		n := int(nRaw)%200 + 1
		idx := int(idxRaw) % n
		base := makeLeaves(n, n, "")
		changed := makeLeaves(n, n, "")
		changed[idx].Hash = leafHash(fmt.Sprintf("changed-%d", idx))
		a, err := Build(base)
		if err != nil {
			return false
		}
		b, err := Build(changed)
		if err != nil {
			return false
		}
		res, err := Diff(a, b)
		if err != nil {
			return false
		}
		return len(res.Changed) == 1 && res.Changed[0] == fmt.Sprintf("layer%d", idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: tree construction is deterministic — same leaves, same root.
func TestRootDeterministicProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		a, err1 := Build(makeLeaves(n, n, ""))
		b, err2 := Build(makeLeaves(n, n, ""))
		return err1 == nil && err2 == nil && a.Root() == b.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
