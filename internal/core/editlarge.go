package core

import (
	"math"

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
//	R1 "reps":   repsInputs, repsMachine (Algorithm 5)
//	R2 "join":   joinInputs, joinMachine (Algorithm 6)
//	R3 "extend": extendInputs, extendMachine (Algorithm 7)
//	R4 "chain":  ChainRound with the overlap-tolerant DP of Section 5.2.3
//
// Simulator liberty (documented in DESIGN.md): string payloads for
// machines whose work assignment only becomes known mid-computation
// (extension and sparse-run machines) are injected by the driver at round
// boundaries, standing in for distributed-storage reads; they count toward
// the receiving machine's memory.

type largeBlock struct{ l, r int }

// distMsg is a representative-to-block distance.
type distMsg struct{ Z, V, D int32 }

// Words implements mpc.Payload.
func (distMsg) Words() int { return 3 }

// wdistMsg is a representative-to-window distance.
type wdistMsg struct{ Z, U, D int32 }

// Words implements mpc.Payload.
func (wdistMsg) Words() int { return 3 }

// selMsg tells a joiner that it hosts block V's best representative.
type selMsg struct{ V, Z, D int32 }

// Words implements mpc.Payload.
func (selMsg) Words() int { return 3 }

// repBatch is an R1 input: a chunk of representatives and a chunk of nodes
// with their string content.
type repBatch struct {
	RepIDs  []int32
	RepStr  [][]byte
	NodeIDs []int32
	NodeStr [][]byte
	// RunRouting lists, for each block id, the R2 run-machine ids that
	// need its representative distances.
	RunRouting map[int32][]int32
}

// Words implements mpc.Payload.
func (b *repBatch) Words() int {
	w := 4 + len(b.RepIDs) + len(b.NodeIDs)
	for _, s := range b.RepStr {
		w += (len(s)+7)/8 + 1
	}
	for _, s := range b.NodeStr {
		w += (len(s)+7)/8 + 1
	}
	for _, r := range b.RunRouting {
		w += 2 + len(r)
	}
	return w
}

// runJob is an R2 input for a presampled (possibly sparse) block: the block
// string, a run of its candidate windows, and the segment covering them.
type runJob struct {
	V      int32 // block id
	L, R   int
	Block  []byte
	SegOff int
	Seg    []byte
	Wins   [][2]int // absolute window intervals within the segment
	Group  int      // group index, for extensions
}

// Words implements mpc.Payload.
func (j *runJob) Words() int {
	return 8 + 2*len(j.Wins) + (len(j.Block)+7)/8 + (len(j.Seg)+7)/8
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

// joinState is a joiner's pass-through payload: its rep id and string plus
// nothing else (its distances arrive as wdistMsg).
type joinState struct {
	Z     int32
	Block bool // whether the rep is a block node
}

// Words implements mpc.Payload.
func (joinState) Words() int { return 2 }

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
	wins        [][2]int  // candidate windows on the G' grid (Section 5.2.1)
	wOfBlock    [][]int32 // window ids usable by each block
	reps        []int32   // the representatives' node ids
	repIndex    map[int32]int

	taus   []int // the distance ladder of Algorithm 6, up to tauMax
	tauMax int
	p2     float64 // the low-degree presampling rate

	// Machine ids. R2: joiners [0, nR), selectors [selBase, runBase), run
	// machines from runBase. R3: joiners [0, nR), the passthrough passID,
	// extension machines from extBase.
	selBase, runBase, passID, extBase int
	runIDs                            map[int32][]int32     // each presampled block's run machines
	runInputs                         map[int][]mpc.Payload // the run machines' jobs
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
		presampled := lg.presample(cl, fN, y, yp)
		nR := len(lg.reps)
		lg.selBase, lg.runBase = nR, nR+lg.numGroups
		lg.passID, lg.extBase = nR, nR+1
		lg.layoutRuns(presampled)
	})
	return lg
}

// label runs a driver-side step labeled phase=partition for profiles.
func (lg *largeGuess) label(step func()) {
	trace.LabelPhase(lg.p.Algo, trace.PhasePartition, "edit/large/partition", step)
}

// windows lays out the candidate windows on the G' grid (Section 5.2.1)
// and gives each block those starting within g+B of it.
func (lg *largeGuess) windows(fN, y float64) {
	n, m := len(lg.s), len(lg.sbar)
	grid := max(1, int(lg.epsP*float64(lg.g)/math.Pow(fN, y)))
	seen := make(map[[2]int]bool)
	for gamma := 0; gamma < m; gamma += grid {
		for _, kappa := range cand.Ends(gamma, min(lg.bsz, n), m, lg.epsP, lg.maxWin, lg.g) {
			if key := [2]int{gamma, kappa}; !seen[key] {
				seen[key] = true
				lg.wins = append(lg.wins, key)
			}
		}
	}
	lg.wOfBlock = make([][]int32, len(lg.blocks))
	for wi, w := range lg.wins {
		for bi, bl := range lg.blocks {
			if abs(w[0]-bl.l) <= lg.g+lg.bsz {
				lg.wOfBlock[bi] = append(lg.wOfBlock[bi], int32(wi))
			}
		}
	}
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
	lg.repIndex = make(map[int32]int)
	for id := int32(0); id < int32(nT); id++ {
		if rng.Float64() < p1 {
			lg.repIndex[id] = len(lg.reps)
			lg.reps = append(lg.reps, id)
		}
	}
}

// presample flips the low-degree coins of Algorithm 6 line 9, one per
// (block, tau); a block gets run machines iff any of its coins is up.
func (lg *largeGuess) presample(cl *mpc.Cluster, fN, y, yp float64) []bool {
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
	presampled := make([]bool, len(lg.blocks))
	for bi := range presampled {
		for range lg.taus {
			if rng.Float64() < lg.p2 {
				presampled[bi] = true
			}
		}
	}
	return presampled
}

// layoutRuns gives each presampled block run machines: its windows in
// runs sized to the memory budget, with the segment of sbar covering them.
func (lg *largeGuess) layoutRuns(presampled []bool) {
	lg.runIDs = make(map[int32][]int32)
	lg.runInputs = make(map[int][]mpc.Payload)
	next := int32(lg.runBase)
	perRun := max(1, (lg.budget/2)/max(1, (lg.bsz+lg.maxWin)/8+3))
	for bi, bl := range lg.blocks {
		ws := lg.wOfBlock[bi]
		if !presampled[bi] || len(ws) == 0 {
			continue
		}
		for lo := 0; lo < len(ws); lo += perRun {
			segLo, segHi := len(lg.sbar), 0
			var ivs [][2]int
			for _, wi := range ws[lo:min(lo+perRun, len(ws))] {
				w := lg.wins[wi]
				ivs = append(ivs, w)
				segLo = min(segLo, w[0])
				segHi = max(segHi, w[1])
			}
			lg.runInputs[int(next)] = []mpc.Payload{&runJob{
				V: int32(bi), L: bl.l, R: bl.r,
				Block:  lg.s[bl.l : bl.r+1],
				SegOff: segLo,
				Seg:    lg.sbar[segLo : segHi+1],
				Wins:   ivs,
				Group:  bi / lg.groupBlocks,
			}}
			lg.runIDs[int32(bi)] = append(lg.runIDs[int32(bi)], next)
			next++
		}
	}
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

// repsInputs builds the reps round's inputs: representatives × nodes in
// chunks bounded by both string residency (input side) and the
// distance-message volume (output side, 3 words per pair).
func (lg *largeGuess) repsInputs() map[int][]mpc.Payload {
	inputs := make(map[int][]mpc.Payload)
	lg.label(func() {
		nb, nR, nT := len(lg.blocks), len(lg.reps), len(lg.blocks)+len(lg.wins)
		perChunk := max(1, (lg.budget/4)/max(1, lg.bsz/8+3))
		perChunk = min(perChunk, max(1, int(math.Sqrt(float64(lg.budget)/8))))
		for rlo := 0; rlo < nR; rlo += perChunk {
			for nlo := 0; nlo < nT; nlo += perChunk {
				batch := &repBatch{RunRouting: make(map[int32][]int32)}
				for _, z := range lg.reps[rlo:min(rlo+perChunk, nR)] {
					batch.RepIDs = append(batch.RepIDs, z)
					batch.RepStr = append(batch.RepStr, lg.node(z))
				}
				for v := nlo; v < min(nlo+perChunk, nT); v++ {
					batch.NodeIDs = append(batch.NodeIDs, int32(v))
					batch.NodeStr = append(batch.NodeStr, lg.node(int32(v)))
					if v < nb {
						batch.RunRouting[int32(v)] = lg.runIDs[int32(v)]
					}
				}
				inputs[len(inputs)] = []mpc.Payload{batch}
			}
		}
	})
	return inputs
}

// repsMachine is the reps round's program (Algorithm 5): exact distances
// from representatives to nodes. A block distance goes to the block's
// selector and run machines, a window distance to the rep's joiner.
func (lg *largeGuess) repsMachine(x *mpc.Ctx, in []mpc.Payload) {
	nb := int32(len(lg.blocks))
	for _, pl := range in {
		b := pl.(*repBatch)
		for zi, z := range b.RepIDs {
			ji := int32(lg.repIndex[z])
			for vi, v := range b.NodeIDs {
				d := int32(editdist.Myers(b.RepStr[zi], b.NodeStr[vi], x.Counter()))
				if v < nb {
					msg := distMsg{Z: ji, V: v, D: d}
					x.Send(lg.selBase+int(v)/lg.groupBlocks, msg)
					for _, rid := range b.RunRouting[v] {
						x.Send(int(rid), msg)
					}
				} else {
					x.Send(int(ji), wdistMsg{Z: ji, U: v - nb, D: d})
				}
			}
		}
	}
}

// joinInputs turns the reps round's output into the join round's inputs:
// it adds each joiner's state, the run jobs, and an empty input for every
// selector that no distance reached.
func (lg *largeGuess) joinInputs(in map[int][]mpc.Payload) map[int][]mpc.Payload {
	lg.label(func() {
		for i, z := range lg.reps {
			in[i] = append(in[i], joinState{Z: int32(i), Block: int(z) < len(lg.blocks)})
		}
		for dst, pls := range lg.runInputs {
			in[dst] = append(in[dst], pls...)
		}
		for id := lg.selBase; id < lg.runBase; id++ {
			if _, ok := in[id]; !ok {
				in[id] = []mpc.Payload{}
			}
		}
	})
	return in
}

// joinMachine is the join round's program (Algorithm 6). Joiners pass
// their window distances and state on to themselves, selectors pick each
// block's best representative, and run machines take low-degree blocks.
func (lg *largeGuess) joinMachine(x *mpc.Ctx, in []mpc.Payload) {
	switch {
	case x.Machine < len(lg.reps):
		for _, pl := range in {
			switch pl.(type) {
			case wdistMsg, joinState:
				x.Send(x.Machine, pl)
			}
		}
	case x.Machine < lg.runBase:
		// Selector: the best representative of each block of its group,
		// sent to that representative's joiner (the N_tau(z) x N_2tau(z)
		// join of Lemma 7).
		best := make(map[int32]distMsg)
		for _, pl := range in {
			if msg, ok := pl.(distMsg); ok {
				cur, seen := best[msg.V]
				if !seen || msg.D < cur.D {
					best[msg.V] = msg
				}
				x.Ops(1)
			}
		}
		for _, msg := range best {
			x.Send(int(msg.Z), selMsg{V: msg.V, Z: msg.Z, D: msg.D})
		}
	default:
		lg.runMachine(x, in)
	}
}

// runMachine is a sparse run machine (Algorithm 6, low-degree branch):
// for each tau at which its block is uncovered and its coin is up, it
// computes exact distances to its windows, sends the direct tuples to the
// passthrough, and requests the shifted pairs of its group's other blocks
// as extensions (Fig. 7).
func (lg *largeGuess) runMachine(x *mpc.Ctx, in []mpc.Payload) {
	var job *runJob
	cover := int32(1 << 30)
	for _, pl := range in {
		switch v := pl.(type) {
		case *runJob:
			job = v
		case distMsg:
			if v.D < cover {
				cover = v.D
			}
		}
	}
	if job == nil {
		return
	}
	// Derive the block's coins from the join round's shared stream.
	rng := x.SharedRand("lowdeg")
	myCoins := make([]bool, len(lg.taus))
	for bi := 0; bi < len(lg.blocks); bi++ {
		for ti := range lg.taus {
			c := rng.Float64() < lg.p2
			if int32(bi) == job.V {
				myCoins[ti] = c
			}
		}
	}
	dmemo := make(map[[2]int]int, len(job.Wins))
	distTo := func(w [2]int) int {
		if d, ok := dmemo[w]; ok {
			return d
		}
		d := editdist.Myers(job.Block, job.Seg[w[0]-job.SegOff:w[1]-job.SegOff+1], x.Counter())
		dmemo[w] = d
		return d
	}
	g0 := job.Group * lg.groupBlocks
	g1 := min(g0+lg.groupBlocks, len(lg.blocks))
	m := len(lg.sbar)
	sentExt := make(map[[4]int]bool)
	for ti, tau := range lg.taus {
		if int(cover) <= tau || !myCoins[ti] {
			continue
		}
		for _, w := range job.Wins {
			d := distTo(w)
			if d > tau {
				continue
			}
			if d <= lg.dFilter(w[1]-w[0]+1) {
				x.Send(lg.passID, tupleMsg(chain.Tuple{L: job.L, R: job.R, G: w[0], K: w[1], D: d}))
			}
			for bj := g0; bj < g1; bj++ {
				if bj == int(job.V) {
					continue
				}
				blj := lg.blocks[bj]
				gamma := max(0, w[0]+(blj.l-job.L))
				kappa := min(m-1, w[1]+(blj.r-job.R))
				if gamma > kappa {
					continue
				}
				req := [4]int{blj.l, blj.r, gamma, kappa}
				if sentExt[req] {
					continue
				}
				sentExt[req] = true
				x.Send(lg.extBase, mpc.Ints{req[0], req[1], req[2], req[3]})
			}
		}
	}
}

// extendInputs turns the join round's output into the extend round's
// inputs. The extension requests (sent to the extBase sentinel) are
// deduplicated and packed onto extension machines with their strings
// injected (a distributed-storage read).
func (lg *largeGuess) extendInputs(in map[int][]mpc.Payload) map[int][]mpc.Payload {
	lg.label(func() {
		reqs := in[lg.extBase]
		delete(in, lg.extBase)
		seen := make(map[[4]int]bool)
		perExt := max(1, (lg.budget/2)/max(1, (lg.bsz+lg.maxWin)/8+8))
		extID, cnt := lg.extBase, 0
		for _, pl := range reqs {
			r := pl.(mpc.Ints)
			rq := [4]int{r[0], r[1], r[2], r[3]}
			if seen[rq] {
				continue
			}
			seen[rq] = true
			in[extID] = append(in[extID], &extJob{
				L: r[0], R: r[1], G: r[2], K: r[3],
				Block: lg.s[r[0] : r[1]+1],
				Win:   lg.sbar[r[2] : r[3]+1],
			})
			if cnt++; cnt%perExt == 0 {
				extID++
			}
		}
		if _, ok := in[lg.passID]; !ok {
			in[lg.passID] = []mpc.Payload{}
		}
	})
	return in
}

// extendMachine is the extend round's program. Joiners emit the triangle
// tuples (d(z,v)+d(z,u) <= 3·tau), the passthrough forwards the direct
// tuples, and extension machines price their pairs exactly (Algorithm 7).
func (lg *largeGuess) extendMachine(x *mpc.Ctx, in []mpc.Payload) {
	switch {
	case x.Machine < len(lg.reps):
		var sels []selMsg
		wd := make(map[int32]int32)
		for _, pl := range in {
			switch msg := pl.(type) {
			case selMsg:
				sels = append(sels, msg)
			case wdistMsg:
				wd[msg.U] = msg.D
			}
		}
		for _, sel := range sels {
			bl := lg.blocks[sel.V]
			dzv := int(sel.D)
			for _, wi := range lg.wOfBlock[sel.V] {
				dzu, ok := wd[wi]
				if !ok {
					continue
				}
				// Lemma 7 ladder test: exists tau in the ladder with
				// d(z,v) <= tau and d(z,u) <= 2 tau.
				need := max(dzv, int(dzu+1)/2)
				if need > lg.tauMax {
					continue
				}
				w := lg.wins[wi]
				d := dzv + int(dzu)
				if d > lg.dFilter(w[1]-w[0]+1) {
					continue
				}
				SendTuple(x, chain.Tuple{L: bl.l, R: bl.r, G: w[0], K: w[1], D: d})
				x.Ops(1)
			}
		}
	case x.Machine == lg.passID:
		for _, pl := range in {
			if t, ok := pl.(tupleMsg); ok {
				x.Send(collector, t)
			}
		}
	default:
		for _, pl := range in {
			if job, ok := pl.(*extJob); ok {
				d := editdist.Myers(job.Block, job.Win, x.Counter())
				if d <= lg.dFilter(job.K-job.G+1) {
					SendTuple(x, chain.Tuple{L: job.L, R: job.R, G: job.G, K: job.K, D: d})
				}
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
