package crashtest

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// pinnedPoints names the crash points a crash-free save of each link kind
// reaches. A wave's writes reach their points in whatever order they
// finish, so the order varies from run to run; the set of names — and so
// the set the sweeps kill — must not.
var pinnedPoints = map[string][]string{
	"baseline":            {"staged", "blob:code", "blob:params", "doc:env", "commit.before", "commit.window"},
	"paramupdate/root":    {"staged", "blob:code", "blob:params", "doc:env", "doc:layerhashes", "commit.before", "commit.window"},
	"paramupdate/derived": {"staged", "blob:params", "doc:env", "doc:layerhashes", "commit.before", "commit.window"},
	// An update written early, then again because the diff named other
	// layers than the guess: its blob reaches blob:params twice.
	"paramupdate/rewrite": {"staged", "blob:params", "blob:params", "doc:env", "doc:layerhashes", "commit.before", "commit.window"},
	"provenance/derived":  {"staged", "blob:dataset", "doc:env", "doc:service", "commit.before", "commit.window"},
	// The tiny net's trainable parameters are smaller than the dataset, so
	// the adaptive policy writes a parameter update here.
	"adaptive/derived": {"staged", "blob:params", "doc:env", "doc:layerhashes", "commit.before", "commit.window"},
}

// recordPoints returns a hook that lets every crash point pass, and a
// function returning the names the hook saw, sorted.
func recordPoints() (core.CrashFn, func() []string) {
	var (
		mu  sync.Mutex
		got []string
	)
	return func(point string) error {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, point)
			return nil
		}, func() []string {
			mu.Lock()
			defer mu.Unlock()
			out := slices.Clone(got)
			slices.Sort(out)
			return out
		}
}

// samePoints fails the test unless got is the pinned set of the link kind.
func samePoints(t *testing.T, kind string, got []string) {
	t.Helper()
	want := slices.Clone(pinnedPoints[kind])
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: crash points reached = %q, want %q", kind, got, want)
	}
}

// TestCrashPointNames checks that a crash-free save of every link kind
// reaches exactly its pinned crash points.
func TestCrashPointNames(t *testing.T) {
	cases := []struct {
		name string
		save func(t *testing.T, base, armed core.Stores) error
	}{
		{"baseline", func(t *testing.T, _, armed core.Stores) error {
			_, err := core.NewBaseline(armed).Save(core.SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 1), WithChecksums: true})
			return err
		}},
		{"paramupdate/root", func(t *testing.T, _, armed core.Stores) error {
			_, err := core.NewParamUpdate(armed).Save(core.SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 1), WithChecksums: true})
			return err
		}},
		{"paramupdate/derived", func(t *testing.T, base, armed core.Stores) error {
			net := tinyNet(t, 1)
			res, err := core.NewParamUpdate(base).Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			perturb(net)
			_, err = core.NewParamUpdate(armed).Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: res.ID, WithChecksums: true})
			return err
		}},
		{"provenance/derived", func(t *testing.T, base, armed core.Stores) error {
			return saveDerived(t, core.NewProvenance(base), core.NewProvenance(armed))
		}},
		{"adaptive/derived", func(t *testing.T, base, armed core.Stores) error {
			return saveDerived(t, core.NewAdaptive(base), core.NewAdaptive(armed))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := newStores(t)
			armed := base
			hook, reached := recordPoints()
			armed.Crash = hook
			if err := tc.save(t, base, armed); err != nil {
				t.Fatal(err)
			}
			samePoints(t, tc.name, reached())
		})
	}
}

// saveDerived saves a base model through plain, trains it into a derived
// one with a provenance record, and saves that through armed.
func saveDerived(t *testing.T, plain, armed core.SaveService) error {
	t.Helper()
	net := tinyNet(t, 1)
	res, err := plain.Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := trainDerived(t, net, tinyDataset(t))
	_, err = armed.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: res.ID, WithChecksums: true, Provenance: rec})
	return err
}
