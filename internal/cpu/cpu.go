// Package cpu provides the performance (timing) models: an out-of-order
// ROB-window model and an in-order EPIC model, plus the machine
// configurations of the paper's Table III. It substitutes for PTLSim and
// for the five real machines of the paper's evaluation.
//
// The out-of-order model is a one-pass trace-driven window model: each
// dynamic instruction dispatches in order (bounded by fetch width, ROB
// occupancy, and branch-mispredict refill bubbles), starts executing once
// its register inputs are ready, and completes after its functional-unit or
// memory latency. That captures exactly the effects the paper's figures
// depend on — dependence chains, cache-miss stalls, mispredict bubbles, and
// issue-width limits — at a small fraction of the cost of a detailed
// pipeline simulator.
//
// The EPIC model issues compiler-built bundles strictly in order: a bundle
// stalls until every input of every instruction in it is ready. It only
// goes fast when the static scheduler has packed independent operations
// together, which is what makes the Itanium numbers sensitive to the
// optimization level (Fig. 11).
package cpu

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Config describes one machine.
type Config struct {
	Name    string
	ISA     *isa.Desc
	FreqGHz float64

	Width             int // dispatch width (instructions/cycle); EPIC: bundles/cycle
	ROB               int // reorder-buffer entries (OoO only)
	MispredictPenalty int // front-end refill bubbles after a mispredict
	StoreQueue        int // in-flight store entries (0 = DefaultStoreQueue)

	L1KB, L1Assoc        int
	L2KB, L2Assoc        int
	L1Lat, L2Lat, MemLat int

	EPIC bool // in-order, bundle-driven (requires cfg.ISA.EPIC code)

	// NewPredictor constructs the branch predictor (nil = DefaultHybrid).
	// The predictor's Name is its identity: two constructors whose
	// predictors share a Name must build the same predictor. Batched
	// simulation (SimulateMany) shares one instance between such configs,
	// just as CanonicalConfig and the fingerprint already treat them as one
	// machine.
	NewPredictor func() bpred.Predictor
}

// Result summarizes a timed execution.
type Result struct {
	Machine     string
	Cycles      uint64
	Instrs      uint64
	CPI         float64
	TimeSec     float64
	L1          cache.Stats
	L2          cache.Stats
	L1Store     cache.Stats
	L2Store     cache.Stats
	BranchAcc   float64
	Branches    uint64
	Mispredicts uint64
	Run         vm.Result
}

// Summary is the serializable core of a Result: everything the design-
// space exploration engine ranks on, without the VM run details (whose
// printed output can be large and is already covered by validation). It
// is the artifact kind the pipeline's Simulate stage persists.
type Summary struct {
	// Machine names the simulated configuration.
	Machine string `json:"machine"`
	// Cycles, Instrs, CPI, and TimeSec summarize the timed execution.
	Cycles  uint64  `json:"cycles"`
	Instrs  uint64  `json:"instrs"`
	CPI     float64 `json:"cpi"`
	TimeSec float64 `json:"timeSec"`
	// L1 and L2 are the load-side data-cache access statistics; L1Store
	// and L2Store count store accesses separately so the load hit rates
	// are not diluted by store fills.
	L1      cache.Stats `json:"l1"`
	L2      cache.Stats `json:"l2"`
	L1Store cache.Stats `json:"l1Store,omitempty"`
	L2Store cache.Stats `json:"l2Store,omitempty"`
	// BranchAcc, Branches, and Mispredicts summarize branch prediction.
	BranchAcc   float64 `json:"branchAcc"`
	Branches    uint64  `json:"branches"`
	Mispredicts uint64  `json:"mispredicts"`
}

// Summary extracts the serializable core of the result.
func (r Result) Summary() Summary {
	return Summary{
		Machine: r.Machine, Cycles: r.Cycles, Instrs: r.Instrs,
		CPI: r.CPI, TimeSec: r.TimeSec, L1: r.L1, L2: r.L2,
		L1Store: r.L1Store, L2Store: r.L2Store,
		BranchAcc: r.BranchAcc, Branches: r.Branches, Mispredicts: r.Mispredicts,
	}
}

// IPC returns instructions per cycle (0 when no cycles elapsed).
func (s Summary) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// Simulate runs prog on the configured machine model. setup (optional)
// installs workload inputs into the VM before execution. A nonzero
// maxInstrs bounds the simulated execution; a run that exhausts the
// budget is a valid (truncated) measurement, not an error — sampled
// simulation is how design-space sweeps stay affordable.
func Simulate(prog *isa.Program, setup func(*vm.VM) error, cfg Config, maxInstrs uint64) (Result, error) {
	res, err := SimulateMany(prog, setup, []Config{cfg}, maxInstrs)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// SimulateMany runs prog once and times that one execution on every
// machine in cfgs, returning the results in config order. The dynamic
// event stream is machine-independent, so the program is loaded, set up,
// and interpreted once, and its read-only per-site tables are built once.
// Events are collected into fixed-size blocks; each full block (and the
// final partial one) is first run through every distinct branch predictor
// — prediction depends only on the branch stream, so machines whose
// predictors share a Name share one instance — and then through each
// machine's timing model in turn, one model over the whole block at a
// time so its state stays resident in the host cache. Results are
// identical to calling Simulate per config. Every config must target the
// program's ISA (and so agree on EPIC); the first that does not is
// rejected by name before anything runs.
func SimulateMany(prog *isa.Program, setup func(*vm.VM) error, cfgs []Config, maxInstrs uint64) ([]Result, error) {
	for _, cfg := range cfgs {
		if err := cfg.ValidateFor(prog.ISA); err != nil {
			return nil, err
		}
	}
	if len(cfgs) == 0 {
		return nil, nil
	}
	m := vm.New(prog)
	if setup != nil {
		if err := setup(m); err != nil {
			return nil, err
		}
	}

	sites, maxRegs := buildSites(prog), maxRegsOf(prog)
	var preds []*predSlot
	slotOf := map[string]*predSlot{}
	models := make([]timingModel, len(cfgs))
	modelPred := make([]*predSlot, len(cfgs))
	for i, cfg := range cfgs {
		p := newPredictor(cfg)
		ps := slotOf[p.Name()]
		if ps == nil {
			ps = &predSlot{p: p}
			slotOf[p.Name()] = ps
			preds = append(preds, ps)
		}
		modelPred[i] = ps
		if cfg.EPIC {
			models[i] = newEPICModel(sites, maxRegs, cfg)
		} else {
			models[i] = newOoOModel(sites, maxRegs, cfg)
		}
	}

	blk := new(block)
	flush := func() {
		for _, ps := range preds {
			ps.resolve(blk, sites)
		}
		for i, md := range models {
			md.observeBlock(blk, &modelPred[i].miss)
		}
		blk.n = 0
	}
	hook := func(ev *vm.Event) {
		blk.ev[blk.n] = event{addr: ev.Addr, site: int32(ev.Site), taken: ev.Taken}
		if blk.n++; blk.n == blockSize {
			flush()
		}
	}
	runRes, err := m.Run(vm.Config{Hook: hook, MaxInstrs: maxInstrs})
	if err != nil {
		t, ok := err.(*vm.Trap)
		if !ok || maxInstrs == 0 || t.Reason != vm.TrapBudgetExhausted {
			return nil, err
		}
		// Instruction budget exhausted: keep the truncated measurement.
	}
	if blk.n > 0 {
		flush()
	}
	results := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		res := models[i].finish()
		res.Machine = cfg.Name
		res.Run = runRes
		res.Instrs = runRes.DynInstrs
		if res.Cycles > 0 {
			res.CPI = float64(res.Cycles) / float64(res.Instrs)
		}
		if cfg.FreqGHz > 0 {
			res.TimeSec = float64(res.Cycles) / (cfg.FreqGHz * 1e9)
		}
		ps := modelPred[i]
		res.Branches, res.Mispredicts, res.BranchAcc = ps.branches, ps.mispredicts, 1
		if ps.branches > 0 {
			res.BranchAcc = 1 - float64(ps.mispredicts)/float64(ps.branches)
		}
		results[i] = res
	}
	return results, nil
}

// blockSize is how many dynamic events SimulateMany collects before
// handing them to the predictors and timing models.
const blockSize = 256

// event is the slim copy of a vm.Event a block keeps: only what the
// predictors and timing models read.
type event struct {
	addr  uint64 // data address (loads and stores)
	site  int32  // static site, indexing the shared siteInfo table
	taken bool   // branch outcome
}

// block is a run of consecutive dynamic events; n are valid.
type block struct {
	ev [blockSize]event
	n  int
}

// predSlot is one branch predictor shared by every machine in a batch
// whose predictor has the same Name, with its branch statistics and the
// per-event mispredict bits of the current block.
type predSlot struct {
	p                     bpred.Predictor
	branches, mispredicts uint64
	miss                  [blockSize]bool // set exactly at mispredicted branches
}

// resolve predicts and trains on every branch of blk in order, marking
// the events that are branches the predictor got wrong.
func (ps *predSlot) resolve(blk *block, sites []siteInfo) {
	for i := range blk.ev[:blk.n] {
		e := &blk.ev[i]
		si := &sites[e.site]
		wrong := false
		if si.kind == kindBranch {
			wrong = ps.p.Predict(si.pc) != e.taken
			ps.p.Update(si.pc, e.taken)
			ps.branches++
			if wrong {
				ps.mispredicts++
			}
		}
		ps.miss[i] = wrong
	}
}

// timingModel is one machine's timing state over a run: it observes the
// dynamic events a block at a time, given which branches its predictor
// mispredicted, and summarizes the timing (all but the branch statistics,
// which the shared predictor keeps) at the end.
type timingModel interface {
	observeBlock(blk *block, miss *[blockSize]bool)
	finish() Result
}

// latencyFor returns the fixed functional-unit latency per class (loads and
// stores are handled separately through the cache hierarchy).
func latencyFor(class isa.Class) uint64 {
	switch class {
	case isa.ClassIntALU, isa.ClassOther:
		return 1
	case isa.ClassIntMul:
		return 3
	case isa.ClassIntDiv:
		return 20
	case isa.ClassFPAdd:
		return 3
	case isa.ClassFPMul:
		return 5
	case isa.ClassFPDiv:
		return 24
	case isa.ClassBranch, isa.ClassJump:
		return 1
	case isa.ClassCall, isa.ClassRet:
		return 2
	case isa.ClassSys:
		return 12
	}
	return 1
}

func newHierarchy(cfg Config) *cache.Hierarchy {
	return &cache.Hierarchy{
		L1: cache.New(cache.Config{
			Name: "L1D", Size: cfg.L1KB * 1024, LineSize: 32, Assoc: max(cfg.L1Assoc, 1),
		}),
		L2: cache.New(cache.Config{
			Name: "L2", Size: cfg.L2KB * 1024, LineSize: 32, Assoc: max(cfg.L2Assoc, 1),
		}),
		L1Lat:  cfg.L1Lat,
		L2Lat:  cfg.L2Lat,
		MemLat: cfg.MemLat,
	}
}

func newPredictor(cfg Config) bpred.Predictor {
	if cfg.NewPredictor != nil {
		return cfg.NewPredictor()
	}
	return bpred.DefaultHybrid()
}

// branchPC builds a stable synthetic PC for a static branch site.
func branchPC(fn, block, index int) uint64 {
	return uint64(fn)<<24 ^ uint64(block)<<10 ^ uint64(index)
}

// siteInfo is the per-static-site metadata both timing models need for
// every dynamic instruction. It is precomputed once per program and
// indexed by Event.Site, so observe never walks program structure, decodes
// use/def operands, or hashes a map on the hot path.
type siteInfo struct {
	pc          uint64 // kindBranch: synthetic predictor PC
	bkey        uint64 // EPIC bundle identity: block ID << 20 | bundle
	lat         uint32 // fixed functional-unit latency (non-memory)
	u1, u2, def isa.RegID
	kind        uint8
}

const (
	kindOther = iota
	kindLoad
	kindStore
	kindBranch
	kindCall
	kindRet
)

// maxRegsOf returns the largest per-function register count, the size
// every model's register-ready table needs.
func maxRegsOf(prog *isa.Program) int {
	maxRegs := 0
	for _, f := range prog.Funcs {
		maxRegs = max(maxRegs, f.NumRegs)
	}
	return maxRegs
}

// buildSites precomputes the read-only site table every timing model of
// one program shares.
func buildSites(prog *isa.Program) []siteInfo {
	lay := vm.LayoutOf(prog)
	sites := make([]siteInfo, lay.NumSites())
	for s := range sites {
		in := lay.Instr(s)
		loc := lay.Loc(s)
		si := &sites[s]
		si.u1, si.u2, si.def = ir.UseDef2(in)
		si.lat = uint32(latencyFor(in.Class()))
		switch in.Op {
		case isa.LD, isa.LDL:
			si.kind = kindLoad
		case isa.ST, isa.STL:
			si.kind = kindStore
		case isa.BR:
			si.kind = kindBranch
			si.pc = branchPC(loc.Func, loc.Block, loc.Index)
		case isa.CALL:
			si.kind = kindCall
		case isa.RET:
			si.kind = kindRet
		}
		blk := prog.Funcs[loc.Func].Blocks[loc.Block]
		bundleID := loc.Index // unscheduled code: every instruction its own bundle
		if blk.Bundle != nil {
			bundleID = blk.Bundle[loc.Index]
		}
		si.bkey = uint64(lay.BlockID(loc.Func, loc.Block))<<20 | uint64(bundleID)&(1<<20-1)
	}
	return sites
}

// DefaultStoreQueue is the store-queue depth used when Config.StoreQueue
// is zero.
const DefaultStoreQueue = 16

// lineShift matches the 32-byte line size newHierarchy configures: store
// queue entries and load conflict checks work at cache-line granularity,
// which is the granularity a real store buffer's partial-overlap CAM
// collapses to in the common case.
const lineShift = 5

// storeEntry is one in-flight store in the store queue: its cache line,
// the cycle its data became available (forwardable to younger loads), and
// the cycle it completes through the memory hierarchy (its queue entry
// frees and conservative in-order loads stop waiting on it).
type storeEntry struct {
	line      uint64
	dataReady uint64
	done      uint64
}

// storeQueue is the bounded in-flight store window both timing models
// share. Stores enter at dispatch with a real hierarchy completion time
// instead of retiring in a cycle; a full queue stalls dispatch until the
// oldest store drains, and younger loads search it newest-first for
// same-line conflicts.
type storeQueue struct {
	q     []storeEntry
	head  int
	count int
}

func newStoreQueue(n int) storeQueue {
	if n <= 0 {
		n = DefaultStoreQueue
	}
	return storeQueue{q: make([]storeEntry, n)}
}

// at returns the ring index i entries past the head (i < len(sq.q)),
// wrapping with a compare instead of a division: the store queue sits on
// every load's and store's hot path.
func (sq *storeQueue) at(i int) int {
	j := sq.head + i
	if j >= len(sq.q) {
		j -= len(sq.q)
	}
	return j
}

// drain retires entries completed at or before now.
func (sq *storeQueue) drain(now uint64) {
	for sq.count > 0 && sq.q[sq.head].done <= now {
		sq.head = sq.at(1)
		sq.count--
	}
}

func (sq *storeQueue) full() bool { return sq.count == len(sq.q) }

// oldestDone returns the completion time of the oldest in-flight store
// (0 when empty).
func (sq *storeQueue) oldestDone() uint64 {
	if sq.count == 0 {
		return 0
	}
	return sq.q[sq.head].done
}

// push enters a store (the caller guarantees space via drain/full).
func (sq *storeQueue) push(e storeEntry) {
	sq.q[sq.at(sq.count)] = e
	sq.count++
}

// match returns the newest in-flight store on line still incomplete at
// time t.
func (sq *storeQueue) match(line uint64, t uint64) (storeEntry, bool) {
	for i := sq.count - 1; i >= 0; i-- {
		e := &sq.q[sq.at(i)]
		if e.line == line && e.done > t {
			return *e, true
		}
	}
	return storeEntry{}, false
}

// regFile is the frame-versioned register-ready table both models use.
// VM registers are per-frame, so readiness keyed by bare RegID would alias
// a callee's r3 with the caller's unrelated r3 across CALL/RET; each
// frame gets a stamp, and a register's readiness only applies when its
// stamp matches the current frame. A CALL's return-value register is
// defined when the matching RET resolves, in the caller's frame.
type regFile struct {
	regs  []regState
	frame uint32
	next  uint32
	calls []frameRet
}

// regState is one register's readiness and the frame stamp it applies
// to, kept together so a lookup touches one cache line.
type regState struct {
	ready uint64
	stamp uint32
}

// frameRet records, per active call, the caller's frame stamp and the
// caller register the callee's RET defines.
type frameRet struct {
	frame uint32
	ret   isa.RegID
}

func newRegFile(maxRegs int) regFile {
	return regFile{regs: make([]regState, maxRegs+1)}
}

// readyAt folds register r's readiness into start (identity when r is
// unwritten in the current frame).
func (rf *regFile) readyAt(r isa.RegID, start uint64) uint64 {
	if r != isa.NoReg {
		if rs := &rf.regs[r]; rs.stamp == rf.frame && rs.ready > start {
			return rs.ready
		}
	}
	return start
}

// define marks register r ready at time t in the current frame.
func (rf *regFile) define(r isa.RegID, t uint64) {
	if r != isa.NoReg {
		rf.regs[r] = regState{ready: t, stamp: rf.frame}
	}
}

// call enters a new frame; ret is the caller register the matching RET
// will define.
func (rf *regFile) call(ret isa.RegID) {
	rf.calls = append(rf.calls, frameRet{frame: rf.frame, ret: ret})
	rf.next++
	rf.frame = rf.next
}

// ret leaves the current frame, defining the recorded return register in
// the caller's frame at time t.
func (rf *regFile) ret(t uint64) {
	n := len(rf.calls)
	if n == 0 {
		return // program-exit RET of main
	}
	fr := rf.calls[n-1]
	rf.calls = rf.calls[:n-1]
	rf.frame = fr.frame
	rf.define(fr.ret, t)
}

// ooOModel is the out-of-order window model.
type ooOModel struct {
	cfg   Config
	hier  *cache.Hierarchy
	sites []siteInfo

	cycle          uint64 // current fetch cycle
	fetchedThis    int    // instructions dispatched in the current cycle
	regs           regFile
	sq             storeQueue
	depTrained     []bool   // per load site: store-set predictor entry
	rob            []uint64 // completion times, ring buffer of ROB size
	robHead        int
	robCount       int
	lastCompletion uint64
}

func newOoOModel(sites []siteInfo, maxRegs int, cfg Config) *ooOModel {
	return &ooOModel{
		cfg:        cfg,
		hier:       newHierarchy(cfg),
		sites:      sites,
		regs:       newRegFile(maxRegs),
		sq:         newStoreQueue(cfg.StoreQueue),
		depTrained: make([]bool, len(sites)),
		rob:        make([]uint64, max(cfg.ROB, 8)),
	}
}

func (m *ooOModel) observeBlock(blk *block, miss *[blockSize]bool) {
	for i := range blk.ev[:blk.n] {
		m.observe(&blk.ev[i], miss[i])
	}
}

// observe times one event; mispredicted is set when it is a branch its
// predictor got wrong.
func (m *ooOModel) observe(ev *event, mispredicted bool) {
	// Dispatch: bounded by width and ROB occupancy.
	if m.fetchedThis >= m.cfg.Width {
		m.cycle++
		m.fetchedThis = 0
	}
	if m.robCount == len(m.rob) {
		head := m.rob[m.robHead]
		if head > m.cycle {
			m.cycle = head
			m.fetchedThis = 0
		}
		if m.robHead++; m.robHead == len(m.rob) {
			m.robHead = 0
		}
		m.robCount--
	}
	m.fetchedThis++

	si := &m.sites[ev.site]
	start := m.regs.readyAt(si.u1, m.cycle)
	start = m.regs.readyAt(si.u2, start)

	var lat uint64
	switch si.kind {
	case kindLoad:
		line := ev.addr >> lineShift
		if e, ok := m.sq.match(line, start); ok {
			// An older store to the same line is in flight: forward its
			// data (the write never reaches the cache before the load).
			// The store-set predictor learns the conflict: the first time
			// a load site hits one it has speculatively bypassed the
			// store and replays; once trained, the site waits for the
			// store data and pays only the forwarding latency.
			data := max(start, e.dataReady) + uint64(m.cfg.L1Lat)
			if !m.depTrained[ev.site] {
				m.depTrained[ev.site] = true
				data += uint64(m.cfg.MispredictPenalty)
			}
			lat = data - start
		} else {
			lat = uint64(m.hier.AccessLatency(ev.addr))
		}
	case kindStore:
		// Stores occupy a queue entry until the written line completes
		// through the hierarchy; a full queue stalls dispatch until the
		// oldest drains. Retirement itself costs one cycle — the latency
		// lives in the queue, where loads and in-order issue can see it.
		m.sq.drain(start)
		if m.sq.full() {
			od := m.sq.oldestDone()
			if od > m.cycle {
				m.cycle = od
				m.fetchedThis = 0
			}
			if od > start {
				start = od
			}
			m.sq.drain(start)
		}
		m.sq.push(storeEntry{
			line:      ev.addr >> lineShift,
			dataReady: start,
			done:      start + uint64(m.hier.StoreLatency(ev.addr)),
		})
		lat = 1
	default:
		lat = uint64(si.lat)
	}
	done := start + lat

	if mispredicted {
		// Front end restarts after the branch resolves.
		refill := done + uint64(m.cfg.MispredictPenalty)
		if refill > m.cycle {
			m.cycle = refill
			m.fetchedThis = 0
		}
	}

	switch si.kind {
	case kindCall:
		m.regs.call(si.def)
	case kindRet:
		m.regs.ret(done)
	default:
		m.regs.define(si.def, done)
	}
	if done > m.lastCompletion {
		m.lastCompletion = done
	}
	// Enter the ROB.
	tail := m.robHead + m.robCount
	if tail >= len(m.rob) {
		tail -= len(m.rob)
	}
	m.rob[tail] = done
	m.robCount++
}

func (m *ooOModel) finish() Result {
	return hierResult(m.hier, max(m.cycle, m.lastCompletion))
}

// hierResult is a model's Result before the batch fills in the run and
// branch statistics: its cycle count and cache statistics.
func hierResult(h *cache.Hierarchy, cycles uint64) Result {
	return Result{
		Cycles:  cycles,
		L1:      h.L1.Stats,
		L2:      h.L2.Stats,
		L1Store: h.L1.StoreStats,
		L2Store: h.L2.StoreStats,
	}
}

// epicModel issues statically scheduled bundles in order.
type epicModel struct {
	cfg   Config
	hier  *cache.Hierarchy
	sites []siteInfo

	cycle          uint64
	regs           regFile
	sq             storeQueue
	lastCompletion uint64

	// Current bundle identity: instructions whose site shares a bkey
	// ((func, block, bundle id) packed by buildSites) issue together.
	curKey uint64
}

func newEPICModel(sites []siteInfo, maxRegs int, cfg Config) *epicModel {
	return &epicModel{
		cfg:    cfg,
		hier:   newHierarchy(cfg),
		sites:  sites,
		regs:   newRegFile(maxRegs),
		sq:     newStoreQueue(cfg.StoreQueue),
		curKey: ^uint64(0), // no bundle yet
	}
}

func (m *epicModel) observeBlock(blk *block, miss *[blockSize]bool) {
	for i := range blk.ev[:blk.n] {
		m.observe(&blk.ev[i], miss[i])
	}
}

// observe times one event; mispredicted is set when it is a branch its
// predictor got wrong.
func (m *epicModel) observe(ev *event, mispredicted bool) {
	si := &m.sites[ev.site]
	if si.bkey != m.curKey {
		m.cycle++ // one bundle per cycle baseline
		m.curKey = si.bkey
	}

	// In-order stall: the whole machine waits for this bundle's inputs.
	start := m.regs.readyAt(si.u1, m.cycle)
	start = m.regs.readyAt(si.u2, start)
	if start > m.cycle {
		m.cycle = start // stall cycles
	}

	var lat uint64
	switch si.kind {
	case kindLoad:
		// Conservative in-order rule: a load may not issue past an
		// unresolved older store to the same line. There is no forwarding
		// network — the machine stalls until the store has executed and
		// written the cache (one L1 latency past its data being ready),
		// then the load replays and pays its own cache access.
		if e, ok := m.sq.match(ev.addr>>lineShift, m.cycle); ok {
			if t := e.dataReady + uint64(m.cfg.L1Lat); t > m.cycle {
				m.cycle = t
			}
		}
		lat = uint64(m.hier.AccessLatency(ev.addr))
	case kindStore:
		m.sq.drain(m.cycle)
		if m.sq.full() {
			if od := m.sq.oldestDone(); od > m.cycle {
				m.cycle = od
			}
			m.sq.drain(m.cycle)
		}
		m.sq.push(storeEntry{
			line:      ev.addr >> lineShift,
			dataReady: m.cycle,
			done:      m.cycle + uint64(m.hier.StoreLatency(ev.addr)),
		})
		lat = 1
	default:
		lat = uint64(si.lat)
	}
	done := m.cycle + lat

	if mispredicted {
		m.cycle = done + uint64(m.cfg.MispredictPenalty)
	}

	switch si.kind {
	case kindCall:
		m.regs.call(si.def)
	case kindRet:
		m.regs.ret(done)
	default:
		m.regs.define(si.def, done)
	}
	if done > m.lastCompletion {
		m.lastCompletion = done
	}
}

func (m *epicModel) finish() Result {
	return hierResult(m.hier, max(m.cycle, m.lastCompletion))
}
