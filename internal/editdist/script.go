package editdist

import "fmt"

// OpKind identifies one primitive edit operation.
type OpKind uint8

// The edit operations of the paper's model. Match is a zero-cost alignment
// column; the other three each cost 1.
const (
	Match OpKind = iota
	Substitute
	Insert
	Delete
)

// String returns a short human-readable name for the operation kind.
func (k OpKind) String() string {
	switch k {
	case Match:
		return "match"
	case Substitute:
		return "sub"
	case Insert:
		return "ins"
	case Delete:
		return "del"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one column of an alignment between a and b. For Match and
// Substitute both positions are valid; Insert consumes only b[BPos];
// Delete consumes only a[APos]. Positions are 0-based.
type Op struct {
	Kind OpKind
	APos int
	BPos int
}

// Cost returns the total cost of a script (the number of non-Match ops).
func Cost(script []Op) int {
	c := 0
	for _, op := range script {
		if op.Kind != Match {
			c++
		}
	}
	return c
}

// Script returns an optimal edit script transforming a into b, using
// Hirschberg's divide-and-conquer in O(|a|·|b|) time and linear space.
func Script(a, b []byte) []Op {
	out := make([]Op, 0, len(a)+len(b))
	hirschberg(a, b, 0, 0, &out)
	return out
}

// forwardRow returns the last row of the edit-distance DP between a and
// prefixes of b, computed in one row of len(b)+1 cells.
func forwardRow[T comparable](a, b []T) []int {
	row := make([]int, len(b)+1)
	for j := range row {
		row[j] = j
	}
	for i, ai := range a {
		diag := row[0]
		row[0] = i + 1
		for j := 1; j <= len(b); j++ {
			up := row[j]
			c := diag
			if ai != b[j-1] {
				c = min(c, up, row[j-1]) + 1
			}
			diag = up
			row[j] = c
		}
	}
	return row
}

// reverse returns a reversed copy of s.
func reverse(s []byte) []byte {
	r := make([]byte, len(s))
	for i, c := range s {
		r[len(s)-1-i] = c
	}
	return r
}

func hirschberg(a, b []byte, aOff, bOff int, out *[]Op) {
	switch {
	case len(a) == 0:
		for j := range b {
			*out = append(*out, Op{Kind: Insert, APos: aOff, BPos: bOff + j})
		}
		return
	case len(b) == 0:
		for i := range a {
			*out = append(*out, Op{Kind: Delete, APos: aOff + i, BPos: bOff})
		}
		return
	case len(a) == 1:
		// Align the single character of a against b directly: match its
		// first occurrence if any (cost |b|-1), otherwise substitute at
		// position 0 and insert the rest (cost |b|).
		bestJ := 0
		for j := range b {
			if b[j] == a[0] {
				bestJ = j
				break
			}
		}
		for j := 0; j < len(b); j++ {
			switch {
			case j == bestJ && b[j] == a[0]:
				*out = append(*out, Op{Kind: Match, APos: aOff, BPos: bOff + j})
			case j == bestJ:
				*out = append(*out, Op{Kind: Substitute, APos: aOff, BPos: bOff + j})
			default:
				*out = append(*out, Op{Kind: Insert, APos: aOff, BPos: bOff + j})
			}
		}
		return
	}
	mid := len(a) / 2
	fwd := forwardRow(a[:mid], b)
	rev := forwardRow(reverse(a[mid:]), reverse(b))
	split, best := 0, int(^uint(0)>>1)
	for j := 0; j <= len(b); j++ {
		if c := fwd[j] + rev[len(b)-j]; c < best {
			best, split = c, j
		}
	}
	hirschberg(a[:mid], b[:split], aOff, bOff, out)
	hirschberg(a[mid:], b[split:], aOff+mid, bOff+split, out)
}

// Validate checks that script is a well-formed transformation of a into b:
// it must consume a left to right and produce b left to right. It returns
// an error describing the first violation. Cost(script) then gives the
// number of edit operations the transformation spends. It is generic so
// that the ulam package's integer-alphabet scripts validate too.
func Validate[T comparable](a, b []T, script []Op) error {
	ai, bi := 0, 0
	for k, op := range script {
		switch op.Kind {
		case Match:
			if op.APos != ai || op.BPos != bi {
				return fmt.Errorf("op %d: match at (%d,%d), expected (%d,%d)", k, op.APos, op.BPos, ai, bi)
			}
			if ai >= len(a) || bi >= len(b) || a[ai] != b[bi] {
				return fmt.Errorf("op %d: match of unequal characters", k)
			}
			ai++
			bi++
		case Substitute:
			if op.APos != ai || op.BPos != bi {
				return fmt.Errorf("op %d: sub at (%d,%d), expected (%d,%d)", k, op.APos, op.BPos, ai, bi)
			}
			if ai >= len(a) || bi >= len(b) {
				return fmt.Errorf("op %d: sub out of range", k)
			}
			ai++
			bi++
		case Insert:
			if op.BPos != bi {
				return fmt.Errorf("op %d: insert at b pos %d, expected %d", k, op.BPos, bi)
			}
			if bi >= len(b) {
				return fmt.Errorf("op %d: insert out of range", k)
			}
			bi++
		case Delete:
			if op.APos != ai {
				return fmt.Errorf("op %d: delete at a pos %d, expected %d", k, op.APos, ai)
			}
			if ai >= len(a) {
				return fmt.Errorf("op %d: delete out of range", k)
			}
			ai++
		default:
			return fmt.Errorf("op %d: unknown kind %d", k, op.Kind)
		}
	}
	if ai != len(a) || bi != len(b) {
		return fmt.Errorf("script consumed (%d,%d) of (%d,%d)", ai, bi, len(a), len(b))
	}
	return nil
}
