package mpc

// Ints is a []int payload; its footprint is one word per element plus a
// header word.
type Ints []int

// Words implements Payload.
func (p Ints) Words() int { return len(p) + 1 }

// Bytes is a []byte payload; eight characters pack into a word, plus a
// header word.
type Bytes []byte

// Words implements Payload.
func (p Bytes) Words() int { return (len(p)+7)/8 + 1 }

// Int is a single-word payload.
type Int int

// Words implements Payload.
func (p Int) Words() int { return 1 }

// BinPack groups item weights into bins of the given capacity using
// order-preserving first fit: items are assigned to consecutive bins, a new
// bin opening whenever the current one would overflow. Items heavier than
// the capacity get a bin of their own. It returns, for each bin, the
// indices of its items.
//
// AssignMachines uses it to split a round's machines across the parties
// of a distributed run by input weight.
func BinPack(weights []int, capacity int) [][]int {
	if len(weights) == 0 {
		return nil
	}
	var bins [][]int
	cur := []int{}
	load := 0
	for i, w := range weights {
		if len(cur) > 0 && capacity > 0 && load+w > capacity {
			bins = append(bins, cur)
			cur = []int{}
			load = 0
		}
		cur = append(cur, i)
		load += w
	}
	bins = append(bins, cur)
	return bins
}
