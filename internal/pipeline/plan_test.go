package pipeline

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/workloads"
)

// TestPipelinePlanSims pins the sweep planner: one job per (program,
// side) batch when batches outnumber workers, and enough contiguous
// chunks for min(workers, simulations) jobs when they do not; every
// simulation is planned exactly once, and every job's cells share one
// program.
func TestPipelinePlanSims(t *testing.T) {
	ws := []*workloads.Workload{workloads.ByName("crc32/small"), workloads.ByName("fft/small1")}
	for _, w := range ws {
		if w == nil {
			t.Fatal("test workload missing")
		}
	}
	grid := func(nw int, levels []compiler.OptLevel, cfgs []cpu.Config) []SimCell {
		var cells []SimCell
		for _, cfg := range cfgs {
			for _, w := range ws[:nw] {
				for _, l := range levels {
					cells = append(cells, SimCell{Workload: w, Level: l, Config: cfg})
				}
			}
		}
		return cells
	}
	points := func(n int) []cpu.Config {
		cfgs := make([]cpu.Config, n)
		for i := range cfgs {
			cfgs[i] = cpu.Simulated2Wide(8)
			cfgs[i].MemLat = 100 + i
		}
		return cfgs
	}
	o2 := []compiler.OptLevel{compiler.O2}
	for _, tc := range []struct {
		name    string
		cells   []SimCell
		workers int
		jobs    int
	}{
		// A one-workload, one-level sweep on 8 workers must not collapse
		// to its two batches.
		{"narrow on 8", grid(1, o2, points(48)), 8, 8},
		{"narrow on 1", grid(1, o2, points(48)), 1, 2},
		// Enough batches to fill the pool: no split.
		{"wide on 2", grid(2, compiler.Levels, points(6)), 2, 16},
		// Fewer simulations than workers: one job per simulation.
		{"one cell on 8", grid(1, o2, points(1)), 8, 2},
		// Table III: the machines sharing an ISA share a batch (x86: 2,
		// amd64: 2, ia64: 1), per side.
		{"table III on 1", grid(1, o2, cpu.Machines), 1, 6},
		// Skewed batches: the large ones absorb the split.
		{"skewed on 8", append(grid(1, []compiler.OptLevel{compiler.O0}, points(1)), grid(1, o2, points(40))...), 8, 8},
	} {
		jobs := planSims(tc.cells, tc.workers)
		if len(jobs) != tc.jobs {
			t.Errorf("%s: %d jobs, want %d", tc.name, len(jobs), tc.jobs)
		}
		if want := min(tc.workers, 2*len(tc.cells)); len(jobs) < want {
			t.Errorf("%s: %d jobs for %d workers and %d simulations", tc.name, len(jobs), tc.workers, 2*len(tc.cells))
		}
		seen := map[[2]int]int{}
		for _, j := range jobs {
			if len(j.cells) == 0 {
				t.Fatalf("%s: empty job", tc.name)
			}
			first := tc.cells[j.cells[0]]
			for k, ci := range j.cells {
				c := tc.cells[ci]
				if c.Workload != first.Workload || c.Level != first.Level || c.Config.ISA != first.Config.ISA {
					t.Errorf("%s: job mixes programs: cell %d vs %d", tc.name, ci, j.cells[0])
				}
				if k > 0 && ci <= j.cells[k-1] {
					t.Errorf("%s: job cells out of cell order: %v", tc.name, j.cells)
				}
				side := 0
				if j.clone {
					side = 1
				}
				seen[[2]int{ci, side}]++
			}
		}
		if len(seen) != 2*len(tc.cells) {
			t.Errorf("%s: planned %d distinct simulations, want %d", tc.name, len(seen), 2*len(tc.cells))
		}
		for sim, n := range seen {
			if n != 1 {
				t.Errorf("%s: simulation %v planned %d times", tc.name, sim, n)
			}
		}
	}
}
