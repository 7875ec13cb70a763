package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// --- Fig. 4: reduction in dynamic instruction count ---

// Fig4Row is one bar of Fig. 4.
type Fig4Row struct {
	Workload  string
	OrigDyn   uint64
	SynDyn    uint64
	Reduction float64 // orig / syn
}

// Fig4Result is the full figure.
type Fig4Result struct {
	Rows         []Fig4Row
	AvgReduction float64
}

// Fig4 measures original-vs-synthetic dynamic instruction counts.
func Fig4(suite []*workloads.Workload) (*Fig4Result, error) {
	return DefaultRunner().Fig4(background(), suite)
}

// Fig4 measures original-vs-synthetic dynamic instruction counts.
func (r *Runner) Fig4(ctx context.Context, suite []*workloads.Workload) (*Fig4Result, error) {
	cs, err := r.characterize(ctx, suite, compiler.O0)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{}
	var ratios []float64
	for i, w := range suite {
		cl, err := r.P.Synthesize(ctx, w)
		if err != nil {
			return nil, err
		}
		row := Fig4Row{Workload: w.Name, OrigDyn: cl.Profile.TotalDyn, SynDyn: cs[i][0].syn.Instrs}
		row.Reduction = float64(row.OrigDyn) / float64(row.SynDyn)
		res.Rows = append(res.Rows, row)
		ratios = append(ratios, row.Reduction)
	}
	res.AvgReduction = stats.Mean(ratios)
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 4 — dynamic instruction count: original relative to synthetic\n")
	fmt.Fprintf(w, "%-24s %14s %14s %10s\n", "workload", "original", "synthetic", "reduction")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %14d %14d %9.1fx\n", row.Workload, row.OrigDyn, row.SynDyn, row.Reduction)
	}
	fmt.Fprintf(w, "%-24s %40.1fx\n", "AVERAGE", r.AvgReduction)
}

// --- Fig. 5: normalized dynamic instruction count across opt levels ---

// Fig5Result carries the per-level averages, normalized to O0.
type Fig5Result struct {
	Levels []string
	Orig   []float64
	Syn    []float64
}

// Fig5 measures how the dynamic instruction count responds to the
// optimization level for originals and clones.
func Fig5(suite []*workloads.Workload) (*Fig5Result, error) {
	return DefaultRunner().Fig5(background(), suite)
}

// Fig5 measures how the dynamic instruction count responds to the
// optimization level for originals and clones.
func (r *Runner) Fig5(ctx context.Context, suite []*workloads.Workload) (*Fig5Result, error) {
	cs, err := r.characterize(ctx, suite, compiler.Levels...)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	for li, level := range compiler.Levels {
		var po, ps []float64
		for _, row := range cs {
			po = append(po, float64(row[li].orig.Instrs)/float64(row[0].orig.Instrs))
			ps = append(ps, float64(row[li].syn.Instrs)/float64(row[0].syn.Instrs))
		}
		res.Levels = append(res.Levels, level.String())
		res.Orig = append(res.Orig, stats.Mean(po))
		res.Syn = append(res.Syn, stats.Mean(ps))
	}
	return res, nil
}

// Print renders the figure.
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 5 — normalized dynamic instruction count vs optimization level\n")
	fmt.Fprintf(w, "%-10s %10s %10s\n", "level", "original", "synthetic")
	for i := range r.Levels {
		fmt.Fprintf(w, "%-10s %9.1f%% %9.1f%%\n", r.Levels[i], r.Orig[i]*100, r.Syn[i]*100)
	}
}

// --- Fig. 6: instruction mix ---

// MixRow holds loads/stores/branches/others fractions for one benchmark
// family, original vs synthetic.
type MixRow struct {
	Name string
	Orig [4]float64
	Syn  [4]float64
}

// Fig6Result is the mix figure at one optimization level.
type Fig6Result struct {
	Level   string
	Rows    []MixRow
	Average MixRow
}

// Fig6 measures the instruction mix per benchmark family at one level
// (the paper shows O0 in Fig. 6(a) and O2 in Fig. 6(b)).
func Fig6(suite []*workloads.Workload, level compiler.OptLevel) (*Fig6Result, error) {
	return DefaultRunner().Fig6(background(), suite, level)
}

// Fig6 measures the instruction mix per benchmark family at one level.
func (r *Runner) Fig6(ctx context.Context, suite []*workloads.Workload, level compiler.OptLevel) (*Fig6Result, error) {
	cs, err := r.characterize(ctx, suite, level)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Level: level.String(), Average: MixRow{Name: "average"}}
	perBench := map[string][]sides{}
	var order []string
	for i, w := range suite {
		if _, ok := perBench[w.Bench]; !ok {
			order = append(order, w.Bench)
		}
		perBench[w.Bench] = append(perBench[w.Bench], cs[i][0])
	}
	avg := &res.Average
	for _, bench := range order {
		row := MixRow{Name: bench}
		n := float64(len(perBench[bench]))
		for _, s := range perBench[bench] {
			orig := profile.MixFractions(&s.orig.Mix, s.orig.Instrs)
			syn := profile.MixFractions(&s.syn.Mix, s.syn.Instrs)
			for i := range row.Orig {
				row.Orig[i] += orig[i] / n
				row.Syn[i] += syn[i] / n
			}
		}
		for i := range row.Orig {
			avg.Orig[i] += row.Orig[i]
			avg.Syn[i] += row.Syn[i]
		}
		res.Rows = append(res.Rows, row)
	}
	for i := range avg.Orig {
		avg.Orig[i] /= float64(len(order))
		avg.Syn[i] /= float64(len(order))
	}
	return res, nil
}

// Print renders the figure.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 6 — instruction mix at %s (loads/stores/branches/others)\n", r.Level)
	fmt.Fprintf(w, "%-14s %32s %32s\n", "benchmark", "original", "synthetic")
	rows := append(append([]MixRow(nil), r.Rows...), r.Average)
	for _, row := range rows {
		fmt.Fprintf(w, "%-14s %7.1f%% %7.1f%% %7.1f%% %7.1f%%  %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			row.Name,
			row.Orig[0]*100, row.Orig[1]*100, row.Orig[2]*100, row.Orig[3]*100,
			row.Syn[0]*100, row.Syn[1]*100, row.Syn[2]*100, row.Syn[3]*100)
	}
}

// --- Figs. 7 and 8: data cache hit rates across sizes ---

// CacheRow is one benchmark's hit-rate sweep.
type CacheRow struct {
	Name string
	Orig []float64
	Syn  []float64
}

// FigCacheResult covers Fig. 7 (O0) or Fig. 8 (O2) depending on level.
type FigCacheResult struct {
	Level string
	Sizes []string
	Rows  []CacheRow
}

// hitRates returns a characterization's hit rate at each sweep size.
func hitRates(c profile.Characterization) []float64 {
	var out []float64
	for _, s := range c.Cache {
		out = append(out, s.HitRate())
	}
	return out
}

// FigCache measures data-cache hit rates for 1KB..32KB caches, original vs
// synthetic, at the given level (Fig. 7 uses O0, Fig. 8 uses O2).
func FigCache(suite []*workloads.Workload, level compiler.OptLevel) (*FigCacheResult, error) {
	return DefaultRunner().FigCache(background(), suite, level)
}

// FigCache measures data-cache hit rates for 1KB..32KB caches.
func (r *Runner) FigCache(ctx context.Context, suite []*workloads.Workload, level compiler.OptLevel) (*FigCacheResult, error) {
	cs, err := r.characterize(ctx, suite, level)
	if err != nil {
		return nil, err
	}
	res := &FigCacheResult{Level: level.String()}
	for _, cfg := range cache.SweepConfigs() {
		res.Sizes = append(res.Sizes, cfg.Name)
	}
	for i, w := range suite {
		res.Rows = append(res.Rows, CacheRow{Name: w.Name, Orig: hitRates(cs[i][0].orig), Syn: hitRates(cs[i][0].syn)})
	}
	return res, nil
}

// Print renders the figure.
func (r *FigCacheResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figs. 7/8 — data cache hit rates at %s\n", r.Level)
	fmt.Fprintf(w, "%-24s %-6s", "workload", "")
	for _, s := range r.Sizes {
		fmt.Fprintf(w, " %7s", s)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %-6s", row.Name, "orig")
		for _, h := range row.Orig {
			fmt.Fprintf(w, " %6.2f%%", h*100)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-24s %-6s", "", "syn")
		for _, h := range row.Syn {
			fmt.Fprintf(w, " %6.2f%%", h*100)
		}
		fmt.Fprintln(w)
	}
}

// --- Fig. 9: branch prediction accuracy ---

// BranchRow is one benchmark's predictor accuracy.
type BranchRow struct {
	Name                         string
	OrigO0, OrigO2, SynO0, SynO2 float64
}

// Fig9Result is the branch prediction figure.
type Fig9Result struct {
	Rows []BranchRow
}

// Fig9 measures hybrid-predictor accuracy for originals and clones at O0
// and O2.
func Fig9(suite []*workloads.Workload) (*Fig9Result, error) {
	return DefaultRunner().Fig9(background(), suite)
}

// Fig9 measures hybrid-predictor accuracy for originals and clones.
func (r *Runner) Fig9(ctx context.Context, suite []*workloads.Workload) (*Fig9Result, error) {
	cs, err := r.characterize(ctx, suite, compiler.O0, compiler.O2)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	for i, w := range suite {
		o0, o2 := cs[i][0], cs[i][1]
		res.Rows = append(res.Rows, BranchRow{Name: w.Name,
			OrigO0: o0.orig.Branch.Accuracy(), OrigO2: o2.orig.Branch.Accuracy(),
			SynO0: o0.syn.Branch.Accuracy(), SynO2: o2.syn.Branch.Accuracy()})
	}
	return res, nil
}

// Print renders the figure.
func (r *Fig9Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 9 — branch prediction accuracy (hybrid predictor)\n")
	fmt.Fprintf(w, "%-24s %9s %9s %9s %9s\n", "workload", "orig -O0", "orig -O2", "syn -O0", "syn -O2")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %8.2f%% %8.2f%% %8.2f%% %8.2f%%\n", row.Name,
			row.OrigO0*100, row.OrigO2*100, row.SynO0*100, row.SynO2*100)
	}
}
