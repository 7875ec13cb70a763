package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/pipeline"
)

// reference is what earlier runs of the same build, suite and seed
// produced: a digest of every figure's table (shared by quick-cold and
// quick-warm, so the two are compared byte for byte) and the exact values
// of each workload. It lives in the harness's directory, so every run of
// one build in a checkout is compared with every earlier one, while a
// change to the code, which may rightly change tables and counts, starts a
// fresh reference.
type reference struct {
	Digests map[string]string             `json:"digests"`
	Exact   map[string]map[string]float64 `json:"exact"`
}

func refPath(dir, build, suite string, seed int64) string {
	return filepath.Join(dir, "ref", build, fmt.Sprintf("%s-seed%d.json", suite, seed))
}

// buildID identifies the running executable, and with it the code it was
// built from, by the leading hex digits of its SHA-256.
var buildID = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
})

func loadReference(path string) (*reference, error) {
	ref := &reference{Digests: map[string]string{}, Exact: map[string]map[string]float64{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return ref, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	return ref, nil
}

// merge adds what the run measured and the reference lacks, and writes
// the reference back.
func (ref *reference) merge(path, workload string, passes []pass) error {
	if ref.Exact[workload] == nil {
		ref.Exact[workload] = map[string]float64{}
	}
	for _, ps := range passes {
		for _, o := range ps.ops {
			if _, ok := ref.Digests[o.name]; !ok {
				ref.Digests[o.name] = digest(o.text)
			}
		}
		for k, v := range ps.exact {
			if _, ok := ref.Exact[workload][k]; !ok {
				ref.Exact[workload][k] = v
			}
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// check runs the output checks over a run's passes, marks every operation
// they fail, and returns one note per failed check:
//   - an operation that returned an error fails;
//   - a table that differs from the first pass, from the cold fill
//     (quick-warm), or from an earlier run of the build with the same
//     seed fails;
//   - a pass whose counts or accuracy figures differ from the first pass
//     or an earlier run of the build fails whole;
//   - a quick-warm pass that computes any pipeline stage fails whole, and
//     so does an explore-calibration pass that computes anything but its
//     simulations, or not all of them.
func (h *harness) check(passes []pass, ref *reference) []string {
	var notes []string
	failOp := func(pi int, o *op, format string, args ...any) {
		o.failed = true
		notes = append(notes, fmt.Sprintf("pass %d: %s: ", pi+1, o.name)+fmt.Sprintf(format, args...))
	}
	failAll := func(pi int, ps *pass, format string, args ...any) {
		for i := range ps.ops {
			ps.ops[i].failed = true
		}
		notes = append(notes, fmt.Sprintf("pass %d: ", pi+1)+fmt.Sprintf(format, args...))
	}
	first := passes[0]
	for pi := range passes {
		ps := &passes[pi]
		for i := range ps.ops {
			o := &ps.ops[i]
			switch {
			case o.err != nil:
				failOp(pi, o, "%v", o.err)
			case o.text != first.ops[i].text:
				failOp(pi, o, "output differs from pass 1")
			case h.fill != nil && o.text != h.fill[i].text:
				failOp(pi, o, "output differs from the cold pass that filled the store")
			case ref.Digests[o.name] != "" && ref.Digests[o.name] != digest(o.text):
				failOp(pi, o, "output differs from an earlier run with seed %d", h.seed)
			}
		}
		for _, k := range sortedKeys(ps.exact) {
			v := ps.exact[k]
			if f, ok := first.exact[k]; ok && f != v {
				failAll(pi, ps, "%s = %v, pass 1 had %v", k, v, f)
			}
			if r, ok := ref.Exact[h.workload][k]; ok && r != v {
				failAll(pi, ps, "%s = %v, an earlier run with seed %d had %v", k, v, h.seed, r)
			}
		}
		switch h.workload {
		case quickWarm:
			for st := pipeline.Stage(0); int(st) < pipeline.NumStages; st++ {
				if n := ps.stats.ComputedFor(st); n > 0 {
					failAll(pi, ps, "the warm pass computed %d %s artifacts", n, st)
				}
			}
		case exploreCal:
			cells := len(h.sweep.Points) * len(h.sweep.Workloads) * len(h.sweep.Levels)
			for st := pipeline.Stage(0); int(st) < pipeline.NumStages; st++ {
				want := uint64(0)
				if st == pipeline.StageSimulate {
					want = uint64(2 * cells)
				}
				if n := ps.stats.ComputedFor(st); n != want {
					failAll(pi, ps, "the sweep computed %d %s artifacts, want %d", n, st, want)
				}
			}
		}
	}
	return notes
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
