package core

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Artifacts is everything one model save persisted — the normalized root
// document, the environment and per-layer-hash documents, and the
// parameter and model-code blobs. Cross-document references are random
// identifiers by design, so they are replaced with stable placeholders;
// everything else must match byte for byte between two saves of the same
// model. The determinism suite compares saves across runs and worker
// counts, and the fault-tolerance tests compare a flow executed over a
// flaky network against a fault-free run: retries and reconnects must
// never change a single stored byte.
type Artifacts struct {
	// Root is the normalized root model document, marshaled. encoding/json
	// sorts map keys, so equal documents marshal to equal bytes.
	Root []byte
	// Env is the environment document, marshaled.
	Env []byte
	// LayerHashes is the per-layer hash document, marshaled.
	LayerHashes []byte
	// Params is the stored parameter blob (full state dict or update).
	Params []byte
	// Code is the stored model-code blob (serialized architecture spec).
	Code []byte
}

// CaptureArtifacts reads back everything the save of model id persisted
// into stores, with random cross-document references neutralized.
func CaptureArtifacts(stores Stores, id string) (Artifacts, error) {
	doc, err := getModelDoc(stores.Meta, id)
	if err != nil {
		return Artifacts{}, fmt.Errorf("core: capturing model %s: %w", id, err)
	}

	var art Artifacts
	if doc.ParamsFileRef != "" {
		if art.Params, err = stores.Files.ReadAll(doc.ParamsFileRef); err != nil {
			return Artifacts{}, fmt.Errorf("core: reading params blob: %w", err)
		}
	}
	if doc.CodeFileRef != "" {
		if art.Code, err = stores.Files.ReadAll(doc.CodeFileRef); err != nil {
			return Artifacts{}, fmt.Errorf("core: reading code blob: %w", err)
		}
	}
	if doc.EnvDocID != "" {
		envRaw, err := stores.Meta.Get(ColEnvironments, doc.EnvDocID)
		if err != nil {
			return Artifacts{}, fmt.Errorf("core: reading environment doc: %w", err)
		}
		if art.Env, err = json.Marshal(envRaw); err != nil {
			return Artifacts{}, err
		}
	}
	if doc.HashDocID != "" {
		hashRaw, err := stores.Meta.Get(ColLayerHashes, doc.HashDocID)
		if err != nil {
			return Artifacts{}, fmt.Errorf("core: reading layer-hash doc: %w", err)
		}
		if art.LayerHashes, err = json.Marshal(hashRaw); err != nil {
			return Artifacts{}, err
		}
	}

	// Neutralize the random identifiers so everything else must match.
	if doc.BaseID != "" {
		doc.BaseID = "<base>"
	}
	if doc.CodeFileRef != "" {
		doc.CodeFileRef = "<code>"
	}
	if doc.EnvDocID != "" {
		doc.EnvDocID = "<env>"
	}
	if doc.ParamsFileRef != "" {
		doc.ParamsFileRef = "<params>"
	}
	if doc.HashDocID != "" {
		doc.HashDocID = "<hashes>"
	}
	if doc.ServiceDocID != "" {
		doc.ServiceDocID = "<service>"
	}
	if art.Root, err = json.Marshal(doc); err != nil {
		return Artifacts{}, err
	}
	return art, nil
}

// Equal reports whether every captured byte matches.
func (a Artifacts) Equal(b Artifacts) bool { return a.Diff(b) == "" }

// Diff names the first field whose bytes differ, or "" when the artifacts
// are identical. Test failure messages use it to point at the divergence.
func (a Artifacts) Diff(b Artifacts) string {
	switch {
	case !bytes.Equal(a.Root, b.Root):
		return "root document"
	case !bytes.Equal(a.Env, b.Env):
		return "environment document"
	case !bytes.Equal(a.LayerHashes, b.LayerHashes):
		return "layer-hash document"
	case !bytes.Equal(a.Params, b.Params):
		return "parameter bytes"
	case !bytes.Equal(a.Code, b.Code):
		return "model-code bytes"
	}
	return ""
}
