package crashtest

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestCrashPointNames lists the crash points a crash-free save of every
// link kind reaches. The sweeps kill a save at the k-th point, and a wave's
// writes reach their points in whatever order they finish, so which name
// the k-th point carries varies from run to run; the set of names a save
// reaches — and so the set the sweeps cover — must not.
func TestCrashPointNames(t *testing.T) {
	commit := []string{"commit.before", "commit.window"}
	cases := []struct {
		name string
		want []string
		save func(t *testing.T, base, armed core.Stores) error
	}{
		{"baseline", append([]string{"staged", "blob:code", "blob:params", "doc:env"}, commit...),
			func(t *testing.T, _, armed core.Stores) error {
				_, err := core.NewBaseline(armed).Save(core.SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 1), WithChecksums: true})
				return err
			}},
		{"paramupdate/root", append([]string{"staged", "blob:code", "blob:params", "doc:env", "doc:layerhashes"}, commit...),
			func(t *testing.T, _, armed core.Stores) error {
				_, err := core.NewParamUpdate(armed).Save(core.SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 1), WithChecksums: true})
				return err
			}},
		{"paramupdate/derived", append([]string{"staged", "blob:params", "doc:env", "doc:layerhashes"}, commit...),
			func(t *testing.T, base, armed core.Stores) error {
				net := tinyNet(t, 1)
				res, err := core.NewParamUpdate(base).Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
				if err != nil {
					t.Fatal(err)
				}
				perturb(net)
				_, err = core.NewParamUpdate(armed).Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: res.ID, WithChecksums: true})
				return err
			}},
		{"provenance/derived", append([]string{"staged", "blob:dataset", "doc:env", "doc:service"}, commit...),
			func(t *testing.T, base, armed core.Stores) error {
				return saveDerived(t, core.NewProvenance(base), core.NewProvenance(armed))
			}},
		// The tiny net's trainable parameters are smaller than the dataset,
		// so the adaptive policy writes a parameter update here.
		{"adaptive/derived", append([]string{"staged", "blob:params", "doc:env", "doc:layerhashes"}, commit...),
			func(t *testing.T, base, armed core.Stores) error {
				return saveDerived(t, core.NewAdaptive(base), core.NewAdaptive(armed))
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := newStores(t)
			armed := base
			var (
				mu  sync.Mutex
				got []string
			)
			armed.Crash = func(point string) error {
				mu.Lock()
				got = append(got, point)
				mu.Unlock()
				return nil
			}
			if err := tc.save(t, base, armed); err != nil {
				t.Fatal(err)
			}
			slices.Sort(got)
			want := slices.Clone(tc.want)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("crash points reached = %q, want %q", got, want)
			}
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
