package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"mpcdist/internal/cand"
	"mpcdist/internal/chain"
	"mpcdist/internal/editdist"
	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
)

// The large-distance regime (Section 5.2), for guesses n^delta > n^{1-x/5},
// runs as steps. partitionLarge builds the guess's shared state; then each
// round has an input builder and a machine program:
//
//	R1 "reps":   repsInputs, repsMachine (Algorithm 5, on the blocks)
//	R2 "join":   joinInputs, joinMachine (Algorithm 6)
//	R3 "extend": extendInputs, extendMachine (Lemma 7's triangles, Algorithm 7)
//	R4 "chain":  ChainRound with the overlap-tolerant DP of Section 5.2.3
//
// Round 1 prices every representative against every block. Round 2's
// selectors send each block's closest representative to the driver, and
// round 3 prices the chosen representatives against the windows their
// blocks may use: the only representative-to-window distances a tuple
// reads (DESIGN.md, "Known deviations"). Round 2's run machines and
// round 3's window machines each take a run of consecutive window starts:
// cut lays both out, and price prices a string against a run's windows.
//
// Simulator liberty (documented in DESIGN.md): string payloads for
// machines whose work assignment only becomes known mid-computation
// (window, extension and sparse-run machines) are injected by the driver
// at round boundaries, standing in for distributed-storage reads; they
// count toward the receiving machine's memory.

// The extend round's fixed machine ids. The passthrough forwards the run
// machines' direct tuples to the chain round. The join round sends the
// selectors' choices and the extension requests to the sink, which the
// driver empties to lay out the rest of the round.
const (
	passID     = 0
	driverSink = 1
)

type largeBlock struct{ l, r int }

// distMsg is a representative-to-block distance.
type distMsg struct{ Z, V, D int32 }

// Words implements mpc.Payload.
func (distMsg) Words() int { return 3 }

// selMsg is a selector's choice: block V's closest representative Z, at
// distance D.
type selMsg struct{ V, Z, D int32 }

// Words implements mpc.Payload.
func (selMsg) Words() int { return 3 }

// repBatch is an R1 input: a chunk of representatives and a chunk of
// blocks with their string content.
type repBatch struct {
	Reps     []int32 // indices into largeGuess.reps
	RepStr   [][]byte
	Blocks   []int32
	BlockStr [][]byte
	// RunRouting lists, for each block id, the R2 run-machine ids that
	// need its representative distances.
	RunRouting map[int32][]int32
}

// Words implements mpc.Payload.
func (b *repBatch) Words() int {
	w := 4 + len(b.Reps) + len(b.Blocks)
	for _, s := range b.RepStr {
		w += (len(s)+7)/8 + 1
	}
	for _, s := range b.BlockStr {
		w += (len(s)+7)/8 + 1
	}
	for _, r := range b.RunRouting {
		w += 2 + len(r)
	}
	return w
}

// startRun is one machine's share of the window starts: the starts
// [First, Last] and the segment of sbar at SegOff covering their windows.
type startRun struct {
	First, Last int // start indices, inclusive
	SegOff      int
	Seg         []byte
}

// words is the run's share of a job's words.
func (r startRun) words() int { return 3 + (len(r.Seg)+7)/8 }

// runJob is an R2 input for a presampled (possibly sparse) block V: the
// block string and a run of the starts within reach of it.
type runJob struct {
	V     int32 // block id
	Block []byte
	Run   startRun
}

// Words implements mpc.Payload.
func (j *runJob) Words() int { return 2 + (len(j.Block)+7)/8 + j.Run.words() }

// winJob is an R3 input: a selected representative, a run of the starts
// its choosing blocks may use, and those blocks' choices.
type winJob struct {
	Rep     []byte
	Run     startRun
	Choices []selMsg
}

// Words implements mpc.Payload.
func (j *winJob) Words() int {
	return 2 + 3*len(j.Choices) + (len(j.Rep)+7)/8 + j.Run.words()
}

// extJob is an R3 input: one extension pair with injected string content.
type extJob struct {
	L, R, G, K int
	Block, Win []byte
}

// Words implements mpc.Payload.
func (j *extJob) Words() int {
	return 5 + (len(j.Block)+7)/8 + (len(j.Win)+7)/8
}

// largeGuess is one guess's shared state, read by every round's input
// builder and machine program. partitionLarge builds it; after that it is
// read-only, so a round's machines share it safely.
type largeGuess struct {
	s, sbar []byte
	g       int
	p       Params
	epsP    float64
	bsz     int // block length n^{1-y}
	maxWin  int // window length cap B/eps' + 1
	budget  int // per-machine words

	// Node ids: blocks are [0, nb), windows are [nb, nb+nw).
	blocks      []largeBlock
	groupBlocks int // blocks per selector group
	numGroups   int
	wins        [][2]int // candidate windows on the G' grid (Section 5.2.1), by start
	opens       []int    // start si opens the windows [opens[si], opens[si+1])
	near        [][2]int // the starts [lo, hi) within g+B of each block
	reps        []int32  // the representatives' node ids

	taus   []int // the distance ladder of Algorithm 6, up to tauMax
	tauMax int
	p2     float64  // the low-degree presampling rate
	coins  [][]bool // coins[block][tau]: the low-degree coins, flipped once

	// R2 machine ids: selectors [0, numGroups), then run machine
	// numGroups+i runs runs[i].
	runIDs map[int32][]int32 // each presampled block's run machines
	runs   []*runJob
}

// editLarge runs the four-round large-distance algorithm for guess g.
func editLarge(s, sbar []byte, g int, p Params) (int, mpc.Report, error) {
	cl := p.Cluster(max(len(s), len(sbar)))
	lg := partitionLarge(cl, s, sbar, g, p)
	if lg == nil {
		return len(s) + len(sbar), cl.Report(), nil
	}
	out, err := cl.Run("edit-large/reps", trace.PhaseGraph, lg.repsInputs(), lg.repsMachine)
	if err != nil {
		return 0, mpc.Report{}, err
	}
	if out, err = cl.Run("edit-large/join", trace.PhaseGraph, lg.joinInputs(out), lg.joinMachine); err != nil {
		return 0, mpc.Report{}, err
	}
	if out, err = cl.Run("edit-large/extend", trace.PhaseGraph, lg.extendInputs(out), lg.extendMachine); err != nil {
		return 0, mpc.Report{}, err
	}
	// Round 4: the overlap-tolerant chain DP (Section 5.2.3).
	v, _, err := ChainRound(cl, "edit-large/chain", out, EditChain(len(s), len(sbar), true))
	if err != nil {
		return 0, mpc.Report{}, err
	}
	return v, cl.Report(), nil
}

// partitionLarge is the regime's partition step: it builds guess g's
// shared state, or returns nil when s or sbar is empty.
func partitionLarge(cl *mpc.Cluster, s, sbar []byte, g int, p Params) *largeGuess {
	n, m := len(s), len(sbar)
	N := max(n, m)
	fN := float64(N)
	y := 6 * p.X / 5
	yp := 4 * p.X / 5
	lg := &largeGuess{s: s, sbar: sbar, g: g, p: p, epsP: p.Eps / 4, bsz: intPow(N, 1-y), budget: p.MemoryBudget(N)}
	for l := 0; l < n; l += lg.bsz {
		lg.blocks = append(lg.blocks, largeBlock{l, min(l+lg.bsz-1, n-1)})
	}
	if len(lg.blocks) == 0 || m == 0 {
		return nil
	}
	lg.groupBlocks = max(1, intPow(N, y-yp))
	lg.numGroups = (len(lg.blocks) + lg.groupBlocks - 1) / lg.groupBlocks
	lg.maxWin = int(float64(lg.bsz)/lg.epsP) + 1
	lg.label(func() {
		lg.windows(fN, y)
		lg.sampleReps(cl, fN)
		lg.presample(cl, fN, y, yp)
		lg.layoutRuns()
	})
	return lg
}

// label runs a driver-side step labeled phase=partition for profiles.
func (lg *largeGuess) label(step func()) {
	trace.LabelPhase(lg.p.Algo, trace.PhasePartition, "edit/large/partition", step)
}

// windows lays out the candidate windows on the G' grid (Section 5.2.1),
// grouped by start, and gives each block the starts within g+B of it.
func (lg *largeGuess) windows(fN, y float64) {
	n, m := len(lg.s), len(lg.sbar)
	grid := max(1, int(lg.epsP*float64(lg.g)/math.Pow(fN, y)))
	for gamma := 0; gamma < m; gamma += grid {
		ends := cand.Ends(gamma, min(lg.bsz, n), m, lg.epsP, lg.maxWin, lg.g)
		if len(ends) == 0 {
			continue
		}
		lg.opens = append(lg.opens, len(lg.wins))
		for _, kappa := range ends {
			lg.wins = append(lg.wins, [2]int{gamma, kappa})
		}
	}
	lg.opens = append(lg.opens, len(lg.wins))
	ns := len(lg.opens) - 1
	startAt := func(si int) int { return lg.wins[lg.opens[si]][0] }
	reach := lg.g + lg.bsz
	lg.near = make([][2]int, len(lg.blocks))
	for bi, bl := range lg.blocks {
		lg.near[bi] = [2]int{
			sort.Search(ns, func(si int) bool { return startAt(si) >= bl.l-reach }),
			sort.Search(ns, func(si int) bool { return startAt(si) > bl.l+reach }),
		}
	}
}

// winsOf returns the window ids [lo, hi) that block bi may use.
func (lg *largeGuess) winsOf(bi int) (int, int) {
	return lg.opens[lg.near[bi][0]], lg.opens[lg.near[bi][1]]
}

// opened returns the windows that open at start si and the end of the
// longest one: they are all prefixes of sbar[start..far].
func (lg *largeGuess) opened(si int) ([][2]int, int) {
	ws := lg.wins[lg.opens[si]:lg.opens[si+1]]
	far := ws[0][1]
	for _, w := range ws[1:] {
		far = max(far, w[1])
	}
	return ws, far
}

// sampleReps draws the representatives at the rate p1 = 2 ln(T) / h,
// h = N^{(3/5)x} (Section 5.3), clamped for simulator scale.
func (lg *largeGuess) sampleReps(cl *mpc.Cluster, fN float64) {
	nT := len(lg.blocks) + len(lg.wins)
	h := math.Pow(fN, 3*lg.p.X/5)
	p1 := 2 * math.Log(float64(nT)+2) / h
	if p1 > 0.3 {
		p1 = 0.3
	}
	rng := cl.SharedRand(0, "reps")
	for id := int32(0); id < int32(nT); id++ {
		if rng.Float64() < p1 {
			lg.reps = append(lg.reps, id)
		}
	}
}

// presample flips the low-degree coins of Algorithm 6 line 9, one per
// (block, tau), from round 0's shared stream: a block gets run machines
// iff any of its coins is up, and a run machine works at the taus whose
// coin is up.
func (lg *largeGuess) presample(cl *mpc.Cluster, fN, y, yp float64) {
	lg.tauMax = lg.bsz + lg.maxWin + 2
	lg.taus = Ladder(lg.epsP, lg.tauMax)
	oneMinusDelta := fN / float64(lg.g)
	denom := math.Pow(fN, y-yp) / oneMinusDelta
	if denom < 1 {
		denom = 1
	}
	lnN := math.Log(fN + 2)
	lg.p2 = 3 * lnN * lnN / (lg.epsP * lg.epsP) / denom
	if lg.p2 > 1 {
		lg.p2 = 1
	}
	rng := cl.SharedRand(0, "lowdeg")
	lg.coins = make([][]bool, len(lg.blocks))
	for bi := range lg.coins {
		lg.coins[bi] = make([]bool, len(lg.taus))
		for ti := range lg.taus {
			lg.coins[bi][ti] = rng.Float64() < lg.p2
		}
	}
}

// layoutRuns gives each presampled block run machines: the starts within
// reach of it, cut into runs. A run machine's fixed input is its block and
// one 3-word distance from every representative, and it sends at most
// five words per window and block of its group: the direct tuple and the
// extension requests.
func (lg *largeGuess) layoutRuns() {
	lg.runIDs = make(map[int32][]int32)
	for bi, near := range lg.near {
		if near[0] == near[1] || !slices.Contains(lg.coins[bi], true) {
			continue
		}
		block := lg.node(int32(bi))
		fixed := (&runJob{Block: block}).Words() + 3*len(lg.reps)
		for _, run := range lg.cut(near[0], near[1], fixed, func(int) int { return lg.groupBlocks }) {
			lg.runIDs[int32(bi)] = append(lg.runIDs[int32(bi)], int32(lg.numGroups+len(lg.runs)))
			lg.runs = append(lg.runs, &runJob{V: int32(bi), Block: block, Run: run})
		}
	}
}

// cut cuts the starts [lo, hi) into runs of consecutive starts, one
// machine's each. A run skips a start where per is 0, and ends before the
// start that would take the machine's input (fixed words and the segment
// of sbar covering the run's windows) or its output (per(si) 5-word
// tuples or requests for each window opening at start si) past half the
// budget.
func (lg *largeGuess) cut(lo, hi, fixed int, per func(si int) int) []startRun {
	half := lg.budget / 2
	var runs []startRun
	open := false
	far, out := 0, 0
	for si := lo; si < hi; si++ {
		k := per(si)
		if k == 0 {
			open = false
			continue
		}
		ws, end := lg.opened(si)
		more := 5 * k * len(ws)
		if open {
			r := runs[len(runs)-1]
			open = fixed+(max(far, end)-r.SegOff+8)/8 <= half && out+more <= half
		}
		if !open {
			runs = append(runs, startRun{First: si, SegOff: ws[0][0]})
			open, far, out = true, 0, 0
		}
		r := &runs[len(runs)-1]
		far, out = max(far, end), out+more
		r.Last, r.Seg = si, lg.sbar[r.SegOff:far+1]
	}
	return runs
}

// price returns the distances from str to the windows of run r, the
// window ids [opens[r.First], opens[r.Last+1]) in order: one MyersMulti
// pass per start, since a start's windows are prefixes of its longest.
func (lg *largeGuess) price(x *mpc.Ctx, str []byte, r startRun) []int {
	d := make([]int, 0, lg.opens[r.Last+1]-lg.opens[r.First])
	var ends []int
	for si := r.First; si <= r.Last; si++ {
		ws, far := lg.opened(si)
		gamma := ws[0][0]
		ends = ends[:0]
		for _, w := range ws {
			ends = append(ends, w[1]-gamma+1)
		}
		d = append(d, editdist.MyersMulti(str, r.Seg[gamma-r.SegOff:far-r.SegOff+1], ends, x.Counter())...)
	}
	return d
}

// node returns the string of a node: a block of s or a window of sbar.
func (lg *largeGuess) node(id int32) []byte {
	if int(id) < len(lg.blocks) {
		bl := lg.blocks[id]
		return lg.s[bl.l : bl.r+1]
	}
	w := lg.wins[int(id)-len(lg.blocks)]
	return lg.sbar[w[0] : w[1]+1]
}

// dFilter is the skip-dominance filter: a tuple costlier than deleting
// the block and inserting the window never helps a chain.
func (lg *largeGuess) dFilter(winLen int) int { return lg.bsz + winLen }

// repsInputs builds the reps round's inputs: representatives × blocks in
// chunks bounded by both string residency (input side) and the
// distance-message volume (output side, 3 words per pair and receiver).
func (lg *largeGuess) repsInputs() map[int][]mpc.Payload {
	inputs := make(map[int][]mpc.Payload)
	lg.label(func() {
		nb, nR := len(lg.blocks), len(lg.reps)
		perChunk := max(1, (lg.budget/4)/max(1, lg.bsz/8+3))
		perChunk = min(perChunk, max(1, int(math.Sqrt(float64(lg.budget)/8))))
		for rlo := 0; rlo < nR; rlo += perChunk {
			for blo := 0; blo < nb; blo += perChunk {
				batch := &repBatch{RunRouting: make(map[int32][]int32)}
				for z := rlo; z < min(rlo+perChunk, nR); z++ {
					batch.Reps = append(batch.Reps, int32(z))
					batch.RepStr = append(batch.RepStr, lg.node(lg.reps[z]))
				}
				for v := blo; v < min(blo+perChunk, nb); v++ {
					batch.Blocks = append(batch.Blocks, int32(v))
					batch.BlockStr = append(batch.BlockStr, lg.node(int32(v)))
					batch.RunRouting[int32(v)] = lg.runIDs[int32(v)]
				}
				inputs[len(inputs)] = []mpc.Payload{batch}
			}
		}
	})
	return inputs
}

// repsMachine is the reps round's program (Algorithm 5, on the blocks):
// exact distances from representatives to blocks, each sent to the
// block's selector and run machines.
func (lg *largeGuess) repsMachine(x *mpc.Ctx, in []mpc.Payload) {
	for _, pl := range in {
		b := pl.(*repBatch)
		for zi, z := range b.Reps {
			for vi, v := range b.Blocks {
				msg := distMsg{Z: z, V: v, D: int32(editdist.Myers(b.RepStr[zi], b.BlockStr[vi], x.Counter()))}
				x.Send(int(v)/lg.groupBlocks, msg)
				for _, rid := range b.RunRouting[v] {
					x.Send(int(rid), msg)
				}
			}
		}
	}
}

// joinInputs turns the reps round's output into the join round's inputs:
// it adds the run jobs.
func (lg *largeGuess) joinInputs(in map[int][]mpc.Payload) map[int][]mpc.Payload {
	lg.label(func() {
		for i, job := range lg.runs {
			in[lg.numGroups+i] = append(in[lg.numGroups+i], job)
		}
	})
	return in
}

// joinMachine is the join round's program (Algorithm 6). Selectors pick
// each block's closest representative, and run machines take low-degree
// blocks.
func (lg *largeGuess) joinMachine(x *mpc.Ctx, in []mpc.Payload) {
	if x.Machine >= lg.numGroups {
		lg.runMachine(x, in)
		return
	}
	// Selector: the closest representative of each block of its group, the
	// lower index on a tie (the N_tau(z) x N_2tau(z) join of Lemma 7), sent
	// to the driver in block order.
	g0 := x.Machine * lg.groupBlocks
	best := make([]selMsg, min(lg.groupBlocks, len(lg.blocks)-g0))
	for i := range best {
		best[i] = selMsg{V: int32(g0 + i), Z: -1}
	}
	for _, pl := range in {
		if msg, ok := pl.(distMsg); ok {
			b := &best[int(msg.V)-g0]
			if b.Z < 0 || msg.D < b.D || msg.D == b.D && msg.Z < b.Z {
				b.Z, b.D = msg.Z, msg.D
			}
			x.Ops(1)
		}
	}
	for _, b := range best {
		if b.Z >= 0 {
			x.Send(driverSink, b)
		}
	}
}

// runMachine is a sparse run machine (Algorithm 6, low-degree branch).
// Its block works at each tau below the block's cover whose driver coin
// is up; the windows within any of those taus are the windows within the
// largest, so it prices its windows once and, for each window within that
// tau, emits the direct tuple (all of them go to the passthrough as one
// batch) and sends the sink requests for the shifted pairs of its group's
// other blocks (Fig. 7).
func (lg *largeGuess) runMachine(x *mpc.Ctx, in []mpc.Payload) {
	var job *runJob
	cover := int32(math.MaxInt32)
	for _, pl := range in {
		switch v := pl.(type) {
		case *runJob:
			job = v
		case distMsg:
			cover = min(cover, v.D)
		}
	}
	if job == nil {
		return
	}
	tau := -1
	for ti, t := range lg.taus {
		if lg.coins[job.V][ti] && t < int(cover) {
			tau = t
		}
	}
	if tau < 0 {
		return
	}
	v := int(job.V)
	bl := lg.blocks[v]
	g0 := v - v%lg.groupBlocks
	lo := lg.opens[job.Run.First]
	var direct tuples
	for i, d := range lg.price(x, job.Block, job.Run) {
		if d > tau {
			continue
		}
		w := lg.wins[lo+i]
		if d <= lg.dFilter(w[1]-w[0]+1) {
			direct = append(direct, chain.Tuple{L: bl.l, R: bl.r, G: w[0], K: w[1], D: d})
		}
		for _, blj := range lg.blocks[g0:min(g0+lg.groupBlocks, len(lg.blocks))] {
			gamma, kappa := max(0, w[0]+blj.l-bl.l), min(len(lg.sbar)-1, w[1]+blj.r-bl.r)
			if blj != bl && gamma <= kappa {
				x.Send(driverSink, mpc.Ints{blj.l, blj.r, gamma, kappa})
			}
		}
	}
	if len(direct) > 0 { // an empty batch would give the extend round an idle passthrough
		x.Send(passID, direct)
	}
}

// extendInputs lays out the extend round from the join round's output.
// The passthrough keeps the run machines' direct tuples. The driver
// empties the sink: the selectors' choices become window machines
// (layoutWins), and the extension requests, sorted and deduplicated, are
// packed onto extension machines with their strings injected (a
// distributed-storage read).
func (lg *largeGuess) extendInputs(in map[int][]mpc.Payload) map[int][]mpc.Payload {
	lg.label(func() {
		var choices []selMsg
		var reqs []mpc.Ints
		for _, pl := range in[driverSink] {
			switch v := pl.(type) {
			case selMsg:
				choices = append(choices, v)
			case mpc.Ints:
				reqs = append(reqs, v)
			}
		}
		delete(in, driverSink)
		// The sink's id is free again once its payloads are read.
		next := lg.layoutWins(choices, in, driverSink)
		slices.SortFunc(reqs, slices.Compare[mpc.Ints])
		reqs = slices.CompactFunc(reqs, slices.Equal[mpc.Ints])
		perExt := max(1, (lg.budget/2)/max(1, (lg.bsz+lg.maxWin)/8+8))
		cnt := 0
		for _, r := range reqs {
			in[next] = append(in[next], &extJob{
				L: r[0], R: r[1], G: r[2], K: r[3],
				Block: lg.s[r[0] : r[1]+1],
				Win:   lg.sbar[r[2] : r[3]+1],
			})
			if cnt++; cnt%perExt == 0 {
				next++
			}
		}
	})
	return in
}

// layoutWins gives the selectors' choices window machines, from machine
// id next on, and returns the next free id. Each selected representative,
// in index order, gets the starts its choosing blocks may use, cut into
// runs: a window machine's fixed input is the representative and its
// choices, and it sends at most one tuple per window and choice.
func (lg *largeGuess) layoutWins(choices []selMsg, in map[int][]mpc.Payload, next int) int {
	slices.SortFunc(choices, func(a, b selMsg) int {
		return cmp.Or(cmp.Compare(a.Z, b.Z), cmp.Compare(a.V, b.V))
	})
	uses := make([]int, len(lg.opens)) // the number of choices using each start
	for lo, hi := 0, 0; lo < len(choices); lo = hi {
		for hi = lo + 1; hi < len(choices) && choices[hi].Z == choices[lo].Z; hi++ {
		}
		zs := choices[lo:hi]
		clear(uses)
		for _, c := range zs {
			uses[lg.near[c.V][0]]++
			uses[lg.near[c.V][1]]--
		}
		for si := 1; si < len(uses); si++ {
			uses[si] += uses[si-1]
		}
		rep := lg.node(lg.reps[zs[0].Z])
		fixed := (&winJob{Rep: rep, Choices: zs}).Words()
		for _, run := range lg.cut(0, len(uses)-1, fixed, func(si int) int { return uses[si] }) {
			in[next] = []mpc.Payload{&winJob{Rep: rep, Run: run, Choices: zs}}
			next++
		}
	}
	return next
}

// extendMachine is the extend round's program. The passthrough forwards
// the run machines' batches of direct tuples unchanged, a window machine
// emits its triangle tuples, and an extension machine prices its pairs
// exactly (Algorithm 7); each of the last two sends one batch.
func (lg *largeGuess) extendMachine(x *mpc.Ctx, in []mpc.Payload) {
	var batch []chain.Tuple
	for _, pl := range in {
		switch job := pl.(type) {
		case tuples:
			x.Send(collector, job)
		case *winJob:
			batch = lg.triangles(x, job, batch)
		case *extJob:
			d := editdist.Myers(job.Block, job.Win, x.Counter())
			if d <= lg.dFilter(job.K-job.G+1) {
				batch = append(batch, chain.Tuple{L: job.L, R: job.R, G: job.G, K: job.K, D: d})
			}
		}
	}
	SendTuples(x, batch)
}

// triangles is a window machine: it prices its representative z against
// its run's windows and appends to batch the triangle tuple d(z,v)+d(z,u)
// of Lemma 7 for every window u that a choosing block v may use. It grows
// batch once, by the windows of the run each choice may use.
func (lg *largeGuess) triangles(x *mpc.Ctx, job *winJob, batch []chain.Tuple) []chain.Tuple {
	lo, hi := lg.opens[job.Run.First], lg.opens[job.Run.Last+1]
	most := 0
	for _, c := range job.Choices {
		wlo, whi := lg.winsOf(int(c.V))
		most += max(0, min(whi, hi)-max(wlo, lo))
	}
	batch = slices.Grow(batch, most)
	dz := lg.price(x, job.Rep, job.Run) // d(z, u) for the windows u in [lo, hi)
	for _, c := range job.Choices {
		bl, dzv := lg.blocks[c.V], int(c.D)
		wlo, whi := lg.winsOf(int(c.V))
		for wi := max(wlo, lo); wi < min(whi, hi); wi++ {
			// Lemma 7 ladder test: exists tau in the ladder with
			// d(z,v) <= tau and d(z,u) <= 2 tau.
			dzu := dz[wi-lo]
			if max(dzv, (dzu+1)/2) > lg.tauMax {
				continue
			}
			w := lg.wins[wi]
			d := dzv + dzu
			if d > lg.dFilter(w[1]-w[0]+1) {
				continue
			}
			batch = append(batch, chain.Tuple{L: bl.l, R: bl.r, G: w[0], K: w[1], D: d})
			x.Ops(1)
		}
	}
	return batch
}
