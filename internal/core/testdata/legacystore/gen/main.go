// Command gen writes the legacy store of internal/core's legacy tests: a
// disk document store and a file directory holding five TinyCNN models
// saved by a build whose side documents have ids of their own, and a
// manifest naming each model and the state hash it must recover to. It
// must be run from the root of a checkout of that build (see ../README.md):
//
//	go run ./gen -out DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/environment"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

// entry is one manifest line.
type entry struct {
	Name      string `json:"name"`
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	Base      string `json:"base,omitempty"`
	StateHash string `json:"state_hash"`
}

func main() {
	out := flag.String("out", "", "directory to write meta/, files/ and manifest.json into")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(1)
	}
}

func run(out string) error {
	if out == "" {
		return fmt.Errorf("-out is required")
	}
	meta, err := docdb.OpenDisk(filepath.Join(out, "meta"))
	if err != nil {
		return err
	}
	files, err := filestore.Open(filepath.Join(out, "files"))
	if err != nil {
		return err
	}
	stores := core.Stores{Meta: meta, Files: files}
	// A fixed environment keeps the machine that ran the generator out of
	// the documents.
	env := environment.Info{
		Framework: environment.Version, Language: "go", OS: "linux", Arch: "amd64", NumCPU: 1,
		Libraries: map[string]string{"tensor": "1.0.0", "nn": "1.0.0"},
	}
	spec := models.Spec{Arch: models.TinyCNNName, NumClasses: 4}
	var manifest []entry
	save := func(svc core.SaveService, name, kind, base string, net nn.Module, rec *core.ProvenanceRecord) (string, error) {
		res, err := svc.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: base, Env: &env, WithChecksums: true, Provenance: rec})
		if err != nil {
			return "", fmt.Errorf("saving %s: %w", name, err)
		}
		manifest = append(manifest, entry{name, res.ID, kind, base, nn.StateDictOf(net).Hash()})
		return res.ID, nil
	}

	// A snapshot and a provenance link on it.
	net, err := models.New(models.TinyCNNName, 4, 1)
	if err != nil {
		return err
	}
	ba, err := save(core.NewBaseline(stores), "ba", "snapshot", "", net, nil)
	if err != nil {
		return err
	}
	ds, err := dataset.Generate(dataset.Spec{Name: "legacy", Images: 4, H: 8, W: 8, Classes: 4, Seed: 3})
	if err != nil {
		return err
	}
	loader, err := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 2, OutH: 8, OutW: 8, Shuffle: true, Seed: 5})
	if err != nil {
		return err
	}
	rec, err := core.NewProvenanceRecord(train.NewImageClassifierTrainService(
		train.ServiceConfig{Epochs: 1, Seed: 6, Deterministic: true}, loader, train.NewSGD(train.SGDConfig{LR: 0.01, Momentum: 0.9})))
	if err != nil {
		return err
	}
	if _, err := rec.Train(net); err != nil {
		return err
	}
	if _, err := save(core.NewProvenance(stores), "provenance", "provenance", ba, net, rec); err != nil {
		return err
	}

	// A parameter-update snapshot and two update links on it.
	net, err = models.New(models.TinyCNNName, 4, 2)
	if err != nil {
		return err
	}
	pua := core.NewParamUpdate(stores)
	base, err := save(pua, "pua0", "snapshot", "", net, nil)
	if err != nil {
		return err
	}
	for i, key := range []string{"fc.weight", "fc.bias"} {
		t, ok := nn.StateDictOf(net).Get(key)
		if !ok {
			return fmt.Errorf("TinyCNN has no %s", key)
		}
		t.Data()[0] += 0.5
		if base, err = save(pua, fmt.Sprintf("pua%d", i+1), "update", base, net, nil); err != nil {
			return err
		}
	}

	b, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "manifest.json"), append(b, '\n'), 0o644)
}
