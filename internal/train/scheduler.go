package train

import (
	"encoding/json"
	"fmt"
)

// StepLR is a step learning-rate scheduler: every StepSize epochs the
// optimizer's learning rate is multiplied by Gamma. Like the optimizer, it
// is a stateful wrapped object in the paper's provenance model: its epoch
// counter cannot be recovered from the constructor arguments, so it is
// captured in a state file before training and restored on recovery —
// otherwise a reproduced training would restart the schedule and diverge
// from the saved model.
type StepLR struct {
	Config StepLRConfig
	// baseLR is the learning rate the schedule decays from.
	baseLR float32
	// epochCount is the internal state: how many epochs have been stepped.
	epochCount int
}

// StepLRConfig holds the scheduler's constructor arguments.
type StepLRConfig struct {
	StepSize int     `json:"step_size"`
	Gamma    float32 `json:"gamma"`
}

// NewStepLR creates a scheduler driving opt's learning rate.
func NewStepLR(cfg StepLRConfig, opt *SGD) (*StepLR, error) {
	if cfg.StepSize <= 0 {
		return nil, fmt.Errorf("train: StepLR step size %d", cfg.StepSize)
	}
	if cfg.Gamma <= 0 {
		return nil, fmt.Errorf("train: StepLR gamma %v", cfg.Gamma)
	}
	return &StepLR{Config: cfg, baseLR: opt.Config.LR}, nil
}

// Step advances the schedule by one epoch and updates the optimizer's
// learning rate.
func (s *StepLR) Step(opt *SGD) {
	s.epochCount++
	decays := s.epochCount / s.Config.StepSize
	lr := s.baseLR
	for i := 0; i < decays; i++ {
		lr *= s.Config.Gamma
	}
	opt.Config.LR = lr
}

// schedulerState is the serialized internal state (the "state file").
type schedulerState struct {
	BaseLR     float32 `json:"base_lr"`
	EpochCount int     `json:"epoch_count"`
}

// MarshalState serializes the scheduler's internal state.
func (s *StepLR) MarshalState() ([]byte, error) {
	return json.Marshal(schedulerState{BaseLR: s.baseLR, EpochCount: s.epochCount})
}

// UnmarshalState restores internal state written by MarshalState.
func (s *StepLR) UnmarshalState(b []byte) error {
	var st schedulerState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("train: decoding scheduler state: %w", err)
	}
	s.baseLR = st.BaseLR
	s.epochCount = st.EpochCount
	return nil
}

// MarshalConfig encodes the constructor arguments as JSON.
func (s *StepLR) MarshalConfig() (json.RawMessage, error) {
	return json.Marshal(s.Config)
}
