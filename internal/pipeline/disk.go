package pipeline

import (
	"fmt"

	"repro/internal/hlc"
	"repro/internal/store"
)

// This file wires pipeline artifact types to the store package's
// serialization, giving the artifact cache its persistent tier. Parse and
// Check artifacts are deliberately absent: ASTs carry pointer-identity maps
// that do not serialize, and both stages are cheap enough that a disk round
// trip would cost more than recomputation.

// typedCodec adapts one artifact type's store encode/decode pair to the
// cache's untyped codec.
func typedCodec[T any](kind string, encode func(T) ([]byte, error), decode func([]byte) (T, error)) *codec {
	return &codec{
		kind:   kind,
		encode: func(v any) ([]byte, error) { return encode(v.(T)) },
		decode: func(data []byte) (any, error) { return decode(data) },
	}
}

// codecProgram persists compiled programs (original and clone compiles).
var codecProgram = typedCodec(store.KindProgram, store.EncodeProgram, store.DecodeProgram)

// codecProfile persists statistical profiles.
var codecProfile = typedCodec(store.KindProfile, store.EncodeProfile, store.DecodeProfile)

// codecClone persists synthesized clones. The HLC source is the stored
// artifact of record; decoding re-parses and re-checks it to rebuild the
// AST forms, exactly as a distributed clone would be consumed.
var codecClone = &codec{
	kind: store.KindClone,
	encode: func(v any) ([]byte, error) {
		cl := v.(*Clone)
		return store.EncodeClone(&store.Clone{
			Source:  cl.Source,
			Report:  cl.Report,
			Profile: cl.Profile,
		})
	},
	decode: func(data []byte) (any, error) {
		sc, err := store.DecodeClone(data)
		if err != nil {
			return nil, err
		}
		prog, err := hlc.Parse(sc.Source)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stored clone does not parse: %w", err)
		}
		cp, err := hlc.Check(prog)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stored clone does not check: %w", err)
		}
		return &Clone{
			Prog:    prog,
			Checked: cp,
			Report:  sc.Report,
			Source:  sc.Source,
			Profile: sc.Profile,
		}, nil
	},
}

// codecSim persists timing-simulation summaries, keyed by workload,
// compilation point, and machine-configuration fingerprint, so design-
// space sweeps resuming over a shared store recompute nothing.
var codecSim = typedCodec(store.KindSim, store.EncodeSim, store.DecodeSim)

// codecCharacterize persists program characterizations (Figs. 4–9's
// raw counts), keyed by workload, side, and compilation point.
var codecCharacterize = typedCodec(store.KindCharacterize, store.EncodeCharacterize, store.DecodeCharacterize)

// codecGenerate persists workload-generation reports. The report is
// produced and consumed as JSON (generate.Report marshals itself before
// handing the bytes to GenerateArtifact), so the codec is a checked
// passthrough rather than a typed round trip — the pipeline package never
// needs to import the generate package it serves.
var codecGenerate = &codec{
	kind: store.KindGenerate,
	encode: func(v any) ([]byte, error) {
		b, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("pipeline: generate artifact is %T, want []byte", v)
		}
		return b, nil
	},
	decode: func(data []byte) (any, error) {
		return data, nil
	},
}

// codecMarker persists validation outcomes, which carry no data beyond
// "this keyed check passed".
var codecMarker = &codec{
	kind: store.KindMarker,
	encode: func(any) ([]byte, error) {
		return store.EncodeMarker(), nil
	},
	decode: func(data []byte) (any, error) {
		if err := store.DecodeMarker(data); err != nil {
			return nil, err
		}
		return struct{}{}, nil
	},
}
