package editdist

import (
	"cmp"
	"slices"
	"sync"

	"mpcdist/internal/stats"
)

const wordBits = 64

// bitState is the Myers/Hyyrö bit-parallel state of one pattern (the
// vertical string): its match table, the vertical delta words of the
// current column, and the score ed(pattern, text consumed so far). Myers
// and MyersMulti share it and its column step.
//
// States are pooled: the match table is a 2 KB array per pattern word, and
// the machines of one job call these kernels hundreds of thousands of
// times. A state leaves the pool with an all-zero table, and free clears
// only the entries its pattern set.
type bitState struct {
	peq      [][256]uint64 // peq[blk][c] has bit i set iff pattern[blk*64+i] == c
	pv, mv   []uint64
	score    int
	scoreBit uint64  // the pattern's last row in the last word
	order    []int32 // MyersMulti's ends, by increasing length
}

var bitStates = sync.Pool{New: func() any { return new(bitState) }}

// maxPooledWords bounds the match tables the pool keeps, at 8 words
// (16 KiB, patterns up to 512 characters). That covers the block-sized
// patterns machines compare. A one-off call on a longer pattern, such as
// an exact oracle over whole inputs, leaves its table to the garbage
// collector instead of pinning it under every later short pattern.
const maxPooledWords = 8

// newBitState returns a pooled state loaded with the non-empty pattern, at
// column 0. Return it with free(pattern).
func newBitState(pattern []byte) *bitState {
	s := bitStates.Get().(*bitState)
	m := len(pattern)
	w := (m + wordBits - 1) / wordBits
	if cap(s.peq) < w {
		s.peq, s.pv, s.mv = make([][256]uint64, w), make([]uint64, w), make([]uint64, w)
	}
	s.peq, s.pv, s.mv = s.peq[:w], s.pv[:w], s.mv[:w]
	for i, c := range pattern {
		s.peq[i/wordBits][c] |= 1 << (uint(i) % wordBits)
	}
	for i := range s.pv {
		s.pv[i], s.mv[i] = ^uint64(0), 0
	}
	s.score = m
	s.scoreBit = 1 << (uint(m-1) % wordBits)
	return s
}

// free clears the table entries pattern set and returns s to the pool,
// unless its table is too large to keep.
func (s *bitState) free(pattern []byte) {
	if cap(s.peq) > maxPooledWords {
		return
	}
	for i, c := range pattern {
		s.peq[i/wordBits][c] = 0
	}
	bitStates.Put(s)
}

// advance runs one column step per character of text and returns the
// score after the last one.
func (s *bitState) advance(text []byte) int {
	peq := s.peq
	pv, mv := s.pv[:len(peq)], s.mv[:len(peq)]
	last := len(peq) - 1
	score, scoreBit := s.score, s.scoreBit
	for _, c := range text {
		hin := 1 // D[0][j+1] - D[0][j] = +1
		for blk := range peq {
			eq := peq[blk][c]
			pvb, mvb := pv[blk], mv[blk]
			xv := eq | mvb
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pvb) + pvb) ^ pvb) | eq
			ph := mvb | ^(xh | pvb)
			mh := pvb & xh
			if blk == last {
				if ph&scoreBit != 0 {
					score++
				} else if mh&scoreBit != 0 {
					score--
				}
			}
			hout := 0
			if ph&(1<<(wordBits-1)) != 0 {
				hout = 1
			} else if mh&(1<<(wordBits-1)) != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			if hin < 0 {
				mh |= 1
			} else if hin > 0 {
				ph |= 1
			}
			pv[blk] = mh | ^(xv | ph)
			mv[blk] = ph & xv
			hin = hout
		}
	}
	s.score = score
	return score
}

// Myers computes the exact edit distance between byte strings using the
// Myers/Hyyrö bit-parallel dynamic program, O(ceil(|a|/64)·|b|) time. It is
// the fast exact kernel used for the many block-sized comparisons performed
// by simulated machines. ops is charged one unit per word-column step, so
// its counts are comparable to DP cells divided by the word size.
func Myers(a, b []byte, ops *stats.Ops) int {
	// Pattern is a (vertical), text is b (horizontal). Keep pattern shorter
	// to minimize the number of words.
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return len(b)
	}
	s := newBitState(a)
	d := s.advance(b)
	ops.Add(int64(len(s.peq)) * int64(len(b)))
	s.free(a)
	return d
}

// MyersMulti returns, for each requested prefix length e in ends,
// ed(a, b[:e]) — all from a single bit-parallel pass over b. The candidate
// construction of Figs. 4-5 evaluates one block against a ladder of
// windows sharing a starting point; those windows are prefixes of the
// longest one, so one pass prices the whole ladder.
//
// ends must be in [0, len(b)]; order is arbitrary and duplicates are fine.
func MyersMulti(a, b []byte, ends []int, ops *stats.Ops) []int {
	out := make([]int, len(ends))
	if len(ends) == 0 {
		return out
	}
	if len(a) == 0 {
		copy(out, ends)
		return out
	}
	for _, e := range ends {
		if e < 0 || e > len(b) {
			panic("editdist: MyersMulti end out of range")
		}
	}
	s := newBitState(a)
	order := s.order[:0]
	for i := range ends {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(ends[x], ends[y]) })
	at := 0
	for _, i := range order {
		if e := ends[i]; e > at {
			s.advance(b[at:e])
			at = e
		}
		out[i] = s.score
	}
	ops.Add(int64(len(s.peq)) * int64(at))
	s.order = order
	s.free(a)
	return out
}
