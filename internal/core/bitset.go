package core

import "hnp/internal/netgraph"

// nodeBitset is a membership set over physical NodeIDs, one bit per node.
// The planners test Cover membership on every view of every query: a
// reset is a word-sized memclr over existing capacity and a probe is one
// shift and mask, with no hashing and no per-view allocation once warm.
type nodeBitset struct {
	words []uint64
}

// reset clears the set and sizes it to hold IDs in [0, n).
func (b *nodeBitset) reset(n int) {
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
		return
	}
	b.words = b.words[:w]
	for i := range b.words {
		b.words[i] = 0
	}
}

// fill resets the set for IDs in [0, n) and adds every given node.
func (b *nodeBitset) fill(nodes []netgraph.NodeID, n int) {
	b.reset(n)
	for _, v := range nodes {
		b.add(v)
	}
}

func (b *nodeBitset) add(v netgraph.NodeID) {
	b.words[v>>6] |= 1 << (uint(v) & 63)
}

// has reports membership; IDs outside the sized range (including negative
// ones) are simply absent, matching the map semantics it replaces.
func (b *nodeBitset) has(v netgraph.NodeID) bool {
	w := int(v >> 6)
	return w >= 0 && w < len(b.words) && b.words[w]&(1<<(uint(v)&63)) != 0
}
