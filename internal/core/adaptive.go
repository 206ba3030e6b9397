package core

import "repro/internal/nn"

// Adaptive is the heuristic approach sketched in the paper's discussion
// (Section 4.7, "Adaptive Approach"): per saved model it picks whichever
// representation is expected to consume the least storage. The heuristic
// follows the paper's observation that "the BA and the PUA mainly depend on
// the model parameters, whereas the MPA primarily depends on the dataset":
//
//   - no base model            → full snapshot (with layer hashes, so later
//     saves can be parameter updates)
//   - provenance available and dataset smaller than the trainable
//     parameters → provenance link
//   - otherwise                → parameter update
//
// Every save also records the layer hashes a parameter update diffs
// against, so any later save can still choose one against this base. Its
// chains mix link kinds freely; recovery never minds (walker.go).
type Adaptive struct{ service }

// NewAdaptive creates an adaptive save service.
func NewAdaptive(stores Stores) *Adaptive {
	return &Adaptive{service{stores: stores, name: "adaptive", plan: adaptivePlan}}
}

func adaptivePlan(info SaveInfo) savePlan {
	plan := savePlan{kind: updateLink, approach: ParamUpdateApproach, layerHashes: true}
	rec := info.Provenance
	switch {
	case info.BaseID == "":
		plan.kind = snapshotLink
	case rec != nil && rec.ds != nil && rec.ds.Spec.SizeBytes() < int64(nn.NumTrainableParams(info.Net))*4:
		plan.kind, plan.approach = provenanceLink, ProvenanceApproach
	}
	return plan
}
