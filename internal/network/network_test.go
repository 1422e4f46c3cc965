package network

import (
	"math/rand"
	"testing"

	"resilientloc/internal/radio"
)

func mustNetwork(t *testing.T, n int, edges [][2]int, link radio.LinkModel, rng *rand.Rand) *Network {
	t.Helper()
	nw, err := New(n, edges, link, rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := New(0, nil, radio.LinkModel{}, rng); err == nil {
		t.Error("want error for zero nodes")
	}
	if _, err := New(3, [][2]int{{0, 5}}, radio.LinkModel{}, rng); err == nil {
		t.Error("want error for out-of-range edge")
	}
	if _, err := New(3, [][2]int{{1, 1}}, radio.LinkModel{}, rng); err == nil {
		t.Error("want error for self-edge")
	}
	if _, err := New(3, nil, radio.LinkModel{LossRate: 2}, rng); err == nil {
		t.Error("want error for invalid link model")
	}
	if _, err := New(3, nil, radio.LinkModel{LossRate: 0.5}, nil); err == nil {
		t.Error("want error for nil rng with lossy links")
	}
}

func TestNeighborsDeduplicated(t *testing.T) {
	nw := mustNetwork(t, 3, [][2]int{{0, 1}, {1, 0}, {1, 2}}, radio.LinkModel{}, nil)
	nb := nw.adj[1]
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Errorf("neighbors of 1 = %v, want [0 2]", nb)
	}
	if got := nw.adj[0]; len(got) != 1 {
		t.Errorf("neighbors of 0 = %v", got)
	}
}

func TestLocalExchangeLossless(t *testing.T) {
	nw := mustNetwork(t, 3, [][2]int{{0, 1}, {1, 2}}, radio.LinkModel{}, nil)
	got := LocalExchange(nw, func(i int) int { return i * 100 })
	if got[0][1] != 100 {
		t.Errorf("node 0 heard %v from 1", got[0][1])
	}
	if got[1][0] != 0 || got[1][2] != 200 {
		t.Errorf("node 1 heard %v", got[1])
	}
	if _, ok := got[0][2]; ok {
		t.Error("non-adjacent payload delivered")
	}
	// 2 edges × 2 directions = 4 messages.
	if nw.MessagesSent() != 4 {
		t.Errorf("MessagesSent = %d, want 4", nw.MessagesSent())
	}
}

func TestLocalExchangeLossy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw := mustNetwork(t, 2, [][2]int{{0, 1}}, radio.LinkModel{LossRate: 1}, rng)
	got := LocalExchange(nw, func(i int) int { return i })
	if len(got[0]) != 0 || len(got[1]) != 0 {
		t.Error("total-loss link delivered payloads")
	}
}

func TestFloodReachesConnectedComponent(t *testing.T) {
	// Path 0-1-2-3 plus isolated node 4.
	nw := mustNetwork(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}}, radio.LinkModel{}, nil)
	var visits []int
	reached, err := Flood(nw, 0, func(node, from int, in int) (int, bool) {
		visits = append(visits, node)
		return in + 1, true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reached) != 4 {
		t.Errorf("reached %v, want 4 nodes", reached)
	}
	for _, r := range reached {
		if r == 4 {
			t.Error("flood reached isolated node")
		}
	}
	if visits[0] != 0 {
		t.Errorf("first visit %d, want root", visits[0])
	}
}

func TestFloodPayloadAccumulates(t *testing.T) {
	// Chain: payload counts hops from root.
	nw := mustNetwork(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, radio.LinkModel{}, nil)
	depth := map[int]int{}
	if _, err := Flood(nw, 0, func(node, from int, in int) (int, bool) {
		depth[node] = in
		return in + 1, true
	}); err != nil {
		t.Fatal(err)
	}
	for node, want := range map[int]int{0: 0, 1: 1, 2: 2, 3: 3} {
		if depth[node] != want {
			t.Errorf("depth[%d] = %d, want %d", node, depth[node], want)
		}
	}
}

func TestFloodStopsWhenVisitDeclines(t *testing.T) {
	nw := mustNetwork(t, 3, [][2]int{{0, 1}, {1, 2}}, radio.LinkModel{}, nil)
	reached, err := Flood(nw, 0, func(node, from int, in struct{}) (struct{}, bool) {
		return struct{}{}, node == 0 // only root forwards
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reached) != 2 { // root + node 1; node 1 refuses to forward
		t.Errorf("reached %v, want [0 1]", reached)
	}
}

func TestFloodRootOutOfRange(t *testing.T) {
	nw := mustNetwork(t, 2, [][2]int{{0, 1}}, radio.LinkModel{}, nil)
	if _, err := Flood(nw, 9, func(n, f int, in int) (int, bool) { return 0, true }); err == nil {
		t.Error("want error for bad root")
	}
}

func TestFloodLossyLinksLimitReach(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Long chain with total loss: flood must stop at the root.
	nw := mustNetwork(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, radio.LinkModel{LossRate: 1}, rng)
	reached, err := Flood(nw, 0, func(node, from int, in int) (int, bool) { return in, true })
	if err != nil {
		t.Fatal(err)
	}
	if len(reached) != 1 || reached[0] != 0 {
		t.Errorf("reached %v, want only the root", reached)
	}
}

func TestFloodRedundantPathsSurviveLoss(t *testing.T) {
	// Triangle 0-1-2 with 50% loss: count how often node 2 is reached over
	// many floods — must exceed the single-path rate thanks to redundancy.
	rng := rand.New(rand.NewSource(9))
	hits := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		nw := mustNetwork(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, radio.LinkModel{LossRate: 0.5}, rng)
		reached, err := Flood(nw, 0, func(node, from int, in int) (int, bool) { return in, true })
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reached {
			if r == 2 {
				hits++
			}
		}
	}
	frac := float64(hits) / trials
	// Direct path alone: 0.5. With the relay path the probability is
	// 0.5 + 0.5·0.25 = 0.625 (direct, or direct-lost then via node 1).
	if frac < 0.55 {
		t.Errorf("redundant-path delivery %.3f, want > 0.55", frac)
	}
}
