package qnet_test

import (
	"slices"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/qnet"
	"repro/internal/topo"
)

// closedModel is n's closed chain model at all-ones windows.
func closedModel(t *testing.T, n *netmodel.Network) *qnet.Network {
	t.Helper()
	ones := numeric.NewIntVector(len(n.Classes))
	for i := range ones {
		ones[i] = 1
	}
	model, _, err := n.ClosedModel(ones)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// coupled reports whether chains r and j share a non-IS station.
func coupled(net *qnet.Network, r, j int) bool {
	for i := range net.Stations {
		if net.Stations[i].Kind != qnet.IS && net.Chains[r].Visits[i] > 0 && net.Chains[j].Visits[i] > 0 {
			return true
		}
	}
	return false
}

// TestCompileBlockLayout checks Compile's block and co-visitor lists
// against brute force on the generated shapes WINDIM dimensions:
//   - the blocks partition the chains, each block ascending, the blocks
//     ordered by their smallest chain;
//   - coupled chains share a block, and each block is connected under
//     the coupling relation (so the partition is the finest exact one);
//   - a block's stations are exactly the non-IS stations its chains
//     visit, ascending;
//   - entry e's co-visitors are the other chains at e's station, chains
//     ascending, with their demand there; IS entries have none.
func TestCompileBlockLayout(t *testing.T) {
	shapes := map[string]func() (*netmodel.Network, error){
		"mesh:64,64,32": func() (*netmodel.Network, error) { return topo.Mesh(64, 64, 32, topo.GenConfig{Seed: 1}) },
		"mesh:64,64,32 seed 7": func() (*netmodel.Network, error) {
			return topo.Mesh(64, 64, 32, topo.GenConfig{Seed: 7})
		},
		"clos:12,6,48": func() (*netmodel.Network, error) { return topo.Clos(12, 6, 48, topo.GenConfig{Seed: 7}) },
		"canada4":      func() (*netmodel.Network, error) { return topo.Canada4Class(20, 20, 20, 20), nil },
	}
	for name, build := range shapes {
		n, err := build()
		if err != nil {
			t.Fatal(err)
		}
		net := closedModel(t, n)
		sp := qnet.Compile(net)
		nCh := net.R()

		blockOf := make([]int, nCh)
		seen := make([]bool, nCh)
		prevFirst := int32(-1)
		for b := 0; b < sp.Blocks(); b++ {
			chains, stations := sp.Block(b)
			if len(chains) == 0 {
				t.Fatalf("%s: block %d is empty", name, b)
			}
			if !slices.IsSorted(chains) || !slices.IsSorted(stations) {
				t.Errorf("%s: block %d lists not ascending: chains %v stations %v", name, b, chains, stations)
			}
			if chains[0] <= prevFirst {
				t.Errorf("%s: block %d starts at chain %d, after a block starting at %d", name, b, chains[0], prevFirst)
			}
			prevFirst = chains[0]
			for _, r := range chains {
				if seen[r] {
					t.Fatalf("%s: chain %d in two blocks", name, r)
				}
				seen[r], blockOf[r] = true, b
			}
			// Connected: a search over the coupling relation from the
			// first chain reaches the whole block.
			reached := map[int32]bool{chains[0]: true}
			queue := []int32{chains[0]}
			for len(queue) > 0 {
				r := queue[0]
				queue = queue[1:]
				for _, j := range chains {
					if !reached[j] && coupled(net, int(r), int(j)) {
						reached[j] = true
						queue = append(queue, j)
					}
				}
			}
			if len(reached) != len(chains) {
				t.Errorf("%s: block %d is not connected (%d of %d chains reached)", name, b, len(reached), len(chains))
			}
			var want []int32
			for i := range net.Stations {
				if net.Stations[i].Kind == qnet.IS {
					continue
				}
				for _, r := range chains {
					if net.Chains[r].Visits[i] > 0 {
						want = append(want, int32(i))
						break
					}
				}
			}
			if !slices.Equal(stations, want) {
				t.Errorf("%s: block %d stations %v, want %v", name, b, stations, want)
			}
		}
		for r := 0; r < nCh; r++ {
			if !seen[r] {
				t.Fatalf("%s: chain %d in no block", name, r)
			}
			for j := r + 1; j < nCh; j++ {
				if coupled(net, r, j) && blockOf[r] != blockOf[j] {
					t.Errorf("%s: coupled chains %d and %d in blocks %d and %d", name, r, j, blockOf[r], blockOf[j])
				}
			}
		}

		for r := 0; r < nCh; r++ {
			for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
				i := int(sp.EntStation[e])
				var wantChain []int32
				var wantDemand []float64
				if net.Stations[i].Kind != qnet.IS {
					for j := 0; j < nCh; j++ {
						if j != r && net.Chains[j].Visits[i] > 0 {
							wantChain = append(wantChain, int32(j))
							wantDemand = append(wantDemand, net.Chains[j].Visits[i]*net.Chains[j].ServTime[i])
						}
					}
				}
				lo, hi := sp.CoPtr[e], sp.CoPtr[e+1]
				if !slices.Equal(sp.CoChain[lo:hi], wantChain) || !slices.Equal(sp.CoDemand[lo:hi], wantDemand) {
					t.Errorf("%s: chain %d station %d co-visitors %v %v, want %v %v", name, r, i,
						sp.CoChain[lo:hi], sp.CoDemand[lo:hi], wantChain, wantDemand)
				}
			}
		}
		t.Logf("%s: %d chains in %d blocks, %d of %d stations in blocks, %d co-visitor entries",
			name, nCh, sp.Blocks(), len(sp.BlockStat), net.N(), len(sp.CoChain))
		if name == "canada4" && sp.Blocks() != 1 {
			t.Errorf("canada4: %d blocks, want one", sp.Blocks())
		}
		if name == "mesh:64,64,32" && sp.Blocks() < 2 {
			t.Errorf("%s: %d blocks; the benchmark mesh splits into several", name, sp.Blocks())
		}

	}
}

// TestCompileBlocksISDoesNotCouple: chains linked only through an IS
// station fall into separate blocks, and IS entries have no co-visitors.
// Stations: s0 FCFS, s1 IS, s2 FCFS; chain 0 visits s0 and s1, chain 1 s1
// and s2, chain 2 s2 alone.
func TestCompileBlocksISDoesNotCouple(t *testing.T) {
	visits := [][]float64{{1, 1, 0}, {0, 1, 1}, {0, 0, 1}}
	net := &qnet.Network{Stations: []qnet.Station{
		{Name: "s0", Kind: qnet.FCFS}, {Name: "s1", Kind: qnet.IS}, {Name: "s2", Kind: qnet.FCFS},
	}}
	for r, v := range visits {
		net.Chains = append(net.Chains, qnet.Chain{Name: string(rune('a' + r)), Population: 1,
			Visits: v, ServTime: []float64{0.1, 0.2, 0.3}})
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	sp := qnet.Compile(net)
	var got [][2][]int32
	for b := 0; b < sp.Blocks(); b++ {
		chains, stations := sp.Block(b)
		got = append(got, [2][]int32{chains, stations})
	}
	want := [][2][]int32{{{0}, {0}}, {{1, 2}, {2}}}
	if len(got) != len(want) {
		t.Fatalf("blocks %v, want %v", got, want)
	}
	for b := range want {
		if !slices.Equal(got[b][0], want[b][0]) || !slices.Equal(got[b][1], want[b][1]) {
			t.Errorf("block %d: chains %v stations %v, want %v %v", b, got[b][0], got[b][1], want[b][0], want[b][1])
		}
	}
	for e := 0; e < sp.Entries(); e++ {
		if sp.EntIS[e] && sp.CoPtr[e] != sp.CoPtr[e+1] {
			t.Errorf("IS entry %d (station %d) has co-visitors %v", e, sp.EntStation[e], sp.CoChain[sp.CoPtr[e]:sp.CoPtr[e+1]])
		}
	}
}
