package store

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/profile"
)

// EncodeProfile serializes a statistical profile. The encoding is the
// profile's own JSON schema (the same shape `synth profile` emits), so a
// stored payload is also directly loadable with profile.Load.
func EncodeProfile(p *profile.Profile) ([]byte, error) {
	if p == nil || p.Graph == nil {
		return nil, fmt.Errorf("store: encode profile: nil profile or graph")
	}
	return json.Marshal(p)
}

// DecodeProfile deserializes a statistical profile.
func DecodeProfile(data []byte) (*profile.Profile, error) {
	var p profile.Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("store: decode profile: %w", err)
	}
	if p.Graph == nil {
		return nil, fmt.Errorf("store: decode profile: missing graph")
	}
	if err := p.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("store: decode profile: %w", err)
	}
	return &p, nil
}

// programJSON is the portable form of a compiled program: the ISA is stored
// by name and re-linked to its descriptor on decode, everything else is the
// isa package's own exported structure.
type programJSON struct {
	ISA     string       `json:"isa"`
	Globals []isa.Global `json:"globals"`
	Funcs   []*isa.Func  `json:"funcs"`
	Entry   int          `json:"entry"`
}

// EncodeProgram serializes a compiled program.
func EncodeProgram(p *isa.Program) ([]byte, error) {
	if p == nil || p.ISA == nil {
		return nil, fmt.Errorf("store: encode program: nil program or ISA")
	}
	return json.Marshal(programJSON{
		ISA:     p.ISA.Name,
		Globals: p.Globals,
		Funcs:   p.Funcs,
		Entry:   p.Entry,
	})
}

// DecodeProgram deserializes a compiled program, re-linking its ISA
// descriptor by name.
func DecodeProgram(data []byte) (*isa.Program, error) {
	var pj programJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, fmt.Errorf("store: decode program: %w", err)
	}
	desc := isa.ByName(pj.ISA)
	if desc == nil {
		return nil, fmt.Errorf("store: decode program: unknown ISA %q", pj.ISA)
	}
	if pj.Entry < 0 || pj.Entry >= len(pj.Funcs) {
		return nil, fmt.Errorf("store: decode program: entry %d out of range", pj.Entry)
	}
	for i, f := range pj.Funcs {
		if f == nil || len(f.Blocks) == 0 {
			return nil, fmt.Errorf("store: decode program: function %d is empty", i)
		}
	}
	return &isa.Program{ISA: desc, Globals: pj.Globals, Funcs: pj.Funcs, Entry: pj.Entry}, nil
}

// Clone is the serialized form of a synthesized benchmark clone. The HLC
// source is the artifact of record — decode callers re-parse and re-check
// it to rebuild the AST forms, exactly as a distributed clone would be
// consumed — alongside the synthesis report and the profile the clone was
// synthesized from.
type Clone struct {
	Source  string           `json:"source"`
	Report  core.Report      `json:"report"`
	Profile *profile.Profile `json:"profile"`
}

// EncodeClone serializes a synthesized clone.
func EncodeClone(c *Clone) ([]byte, error) {
	if c == nil || c.Source == "" {
		return nil, fmt.Errorf("store: encode clone: nil clone or empty source")
	}
	return json.Marshal(c)
}

// DecodeClone deserializes a synthesized clone.
func DecodeClone(data []byte) (*Clone, error) {
	var c Clone
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("store: decode clone: %w", err)
	}
	if c.Source == "" {
		return nil, fmt.Errorf("store: decode clone: empty source")
	}
	return &c, nil
}

// EncodeSim serializes a timing-simulation summary — the artifact the
// pipeline's Simulate stage persists, keyed by workload, compilation
// point, and machine-configuration fingerprint.
func EncodeSim(s cpu.Summary) ([]byte, error) {
	if s.Instrs == 0 {
		return nil, fmt.Errorf("store: encode sim: empty simulation (no instructions)")
	}
	return json.Marshal(s)
}

// DecodeSim deserializes a timing-simulation summary.
func DecodeSim(data []byte) (cpu.Summary, error) {
	var s cpu.Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return cpu.Summary{}, fmt.Errorf("store: decode sim: %w", err)
	}
	if s.Instrs == 0 {
		return cpu.Summary{}, fmt.Errorf("store: decode sim: empty simulation")
	}
	return s, nil
}

// EncodeCharacterize serializes a program characterization — the
// artifact the pipeline's Characterize stage persists.
func EncodeCharacterize(c profile.Characterization) ([]byte, error) {
	if c.Instrs == 0 {
		return nil, fmt.Errorf("store: encode characterize: empty run (no instructions)")
	}
	return json.Marshal(c)
}

// DecodeCharacterize deserializes a program characterization.
func DecodeCharacterize(data []byte) (profile.Characterization, error) {
	var c profile.Characterization
	if err := json.Unmarshal(data, &c); err != nil {
		return profile.Characterization{}, fmt.Errorf("store: decode characterize: %w", err)
	}
	if c.Instrs == 0 {
		return profile.Characterization{}, fmt.Errorf("store: decode characterize: empty run")
	}
	return c, nil
}

// markerPayload is the fixed payload of validation markers.
var markerPayload = []byte(`{"ok":true}`)

// EncodeMarker returns the payload recording that a keyed check passed.
func EncodeMarker() []byte {
	return append([]byte(nil), markerPayload...)
}

// DecodeMarker validates a marker payload.
func DecodeMarker(data []byte) error {
	var m struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("store: decode marker: %w", err)
	}
	if !m.OK {
		return fmt.Errorf("store: decode marker: not ok")
	}
	return nil
}
