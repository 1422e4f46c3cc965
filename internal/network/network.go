// Package network provides the in-memory message-passing substrate for the
// distributed localization algorithm (paper Section 4.3): a static topology
// derived from the ranging graph, lossy links, and the one round of flooding
// the alignment step requires ("This algorithm requires two local data
// exchanges per node and one round of flooding").
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"resilientloc/internal/radio"
)

// Network is a synchronous message-passing simulation over a fixed
// topology.
type Network struct {
	n    int
	adj  map[int][]int
	link radio.LinkModel
	rng  *rand.Rand
	sent int
}

// New creates a network over n nodes with the given undirected edges. Edges
// referencing out-of-range nodes are rejected.
func New(n int, edges [][2]int, link radio.LinkModel, rng *rand.Rand) (*Network, error) {
	if n <= 0 {
		return nil, errors.New("network: need positive node count")
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	if link.LossRate > 0 && rng == nil {
		return nil, errors.New("network: nil rng with lossy links")
	}
	nw := &Network{n: n, adj: make(map[int][]int), link: link, rng: rng}
	seen := make(map[[2]int]bool)
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("network: edge (%d,%d) out of range", a, b)
		}
		if a == b {
			return nil, fmt.Errorf("network: self-edge %d", a)
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		nw.adj[a] = append(nw.adj[a], b)
		nw.adj[b] = append(nw.adj[b], a)
	}
	for _, nbrs := range nw.adj {
		sort.Ints(nbrs)
	}
	return nw, nil
}

// MessagesSent returns the total number of point-to-point transmissions
// attempted so far (including lost ones).
func (nw *Network) MessagesSent() int { return nw.sent }

// send attempts one transmission and reports delivery.
func (nw *Network) send() bool {
	nw.sent++
	return nw.link.Delivered(nw.rng)
}

// LocalExchange models each node broadcasting one payload to all its
// neighbors (one of the "two local data exchanges per node"). It returns,
// for each node, the set of neighbor payloads that arrived:
// received[i][j] = payload of j as heard by i.
func LocalExchange[T any](nw *Network, payload func(node int) T) map[int]map[int]T {
	received := make(map[int]map[int]T, nw.n)
	for i := 0; i < nw.n; i++ {
		received[i] = make(map[int]T)
	}
	for j := 0; j < nw.n; j++ {
		p := payload(j)
		for _, i := range nw.adj[j] {
			if nw.send() {
				received[i][j] = p
			}
		}
	}
	return received
}

// Flood runs a BFS flood from root. visit is called the first time a node
// receives the flood payload, with the sending neighbor and that neighbor's
// forwarded payload; it returns the payload this node will forward, and
// whether to keep forwarding. The root's visit is called with from = -1 and
// the zero payload. Flood returns the nodes reached, ascending.
func Flood[T any](nw *Network, root int, visit func(node, from int, incoming T) (T, bool)) ([]int, error) {
	if root < 0 || root >= nw.n {
		return nil, fmt.Errorf("network: flood root %d out of range", root)
	}
	type item struct {
		node    int
		from    int
		payload T
	}
	var zero T
	reached := make(map[int]bool, nw.n)
	queue := []item{{node: root, from: -1, payload: zero}}
	var order []int
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if reached[it.node] {
			continue
		}
		out, forward := visit(it.node, it.from, it.payload)
		reached[it.node] = true
		order = append(order, it.node)
		if !forward {
			continue
		}
		for _, nb := range nw.adj[it.node] {
			if reached[nb] {
				continue
			}
			if nw.send() {
				queue = append(queue, item{node: nb, from: it.node, payload: out})
			}
		}
	}
	sort.Ints(order)
	return order, nil
}
