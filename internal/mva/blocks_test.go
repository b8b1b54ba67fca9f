package mva

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/qnet"
	"repro/internal/rng"
	"repro/internal/topo"
)

// disjointUnion returns A⊕B: A's stations, then B's, and the chains
// interleaved A0, B0, A1, B1, … (the longer network's extra chains last).
// from[k] names union chain k's source: network 0 (A) or 1 (B), and the
// chain's index there.
func disjointUnion(a, b *qnet.Network) (u *qnet.Network, from [][2]int) {
	nA, nB := a.N(), b.N()
	u = &qnet.Network{}
	for _, st := range a.Stations {
		st.Name = "A." + st.Name
		u.Stations = append(u.Stations, st)
	}
	for _, st := range b.Stations {
		st.Name = "B." + st.Name
		u.Stations = append(u.Stations, st)
	}
	add := func(src int, ch qnet.Chain, off int) {
		visits := make([]float64, nA+nB)
		serv := make([]float64, nA+nB)
		copy(visits[off:], ch.Visits)
		copy(serv[off:], ch.ServTime)
		ch.Name = fmt.Sprintf("%c.%s", "AB"[src], ch.Name)
		ch.Visits, ch.ServTime = visits, serv
		u.Chains = append(u.Chains, ch)
	}
	for k := 0; k < max(a.R(), b.R()); k++ {
		if k < a.R() {
			add(0, a.Chains[k], 0)
			from = append(from, [2]int{0, k})
		}
		if k < b.R() {
			add(1, b.Chains[k], nA)
			from = append(from, [2]int{1, k})
		}
	}
	return u, from
}

// unionWarm assembles the union's warm start from the parts' seeds.
func unionWarm(u *qnet.Network, from [][2]int, parts [2]*qnet.Network, warm [2]*WarmStart) *WarmStart {
	w := &WarmStart{Throughput: numeric.NewVector(u.R()), QueueLen: numeric.NewMatrix(u.N(), u.R())}
	for k, f := range from {
		off := 0
		if f[0] == 1 {
			off = parts[0].N()
		}
		w.Throughput[k] = warm[f[0]].Throughput[f[1]]
		for i := 0; i < parts[f[0]].N(); i++ {
			w.QueueLen.Set(off+i, k, warm[f[0]].QueueLen.At(i, f[1]))
		}
	}
	return w
}

// requirePartOfUnion checks that the union solution restricted to part p
// is the part's own solution, to the bit.
func requirePartOfUnion(t *testing.T, tag string, us *Solution, from [][2]int, p int, parts [2]*qnet.Network, ps *Solution) {
	t.Helper()
	off := 0
	if p == 1 {
		off = parts[0].N()
	}
	for k, f := range from {
		if f[0] != p {
			continue
		}
		r := f[1]
		if math.Float64bits(us.Throughput[k]) != math.Float64bits(ps.Throughput[r]) {
			t.Errorf("%s: union chain %d throughput %v, part %c chain %d alone %v",
				tag, k, us.Throughput[k], "AB"[p], r, ps.Throughput[r])
		}
		for i := 0; i < parts[p].N(); i++ {
			if math.Float64bits(us.QueueLen.At(off+i, k)) != math.Float64bits(ps.QueueLen.At(i, r)) ||
				math.Float64bits(us.QueueTime.At(off+i, k)) != math.Float64bits(ps.QueueTime.At(i, r)) {
				t.Errorf("%s: union chain %d at station %d: N %v T %v, part alone N %v T %v",
					tag, k, off+i, us.QueueLen.At(off+i, k), us.QueueTime.At(off+i, k),
					ps.QueueLen.At(i, r), ps.QueueTime.At(i, r))
			}
		}
	}
}

// unionPairs returns the A, B pairs the block tests combine: random
// sparse networks (often several blocks each), and a Canada-4 model beside
// a generated mesh.
func unionPairs(t *testing.T) [][2]*qnet.Network {
	var pairs [][2]*qnet.Network
	master := rng.New(0xb10c)
	for trial := 0; trial < 24; trial++ {
		s := master.Split(uint64(trial))
		pairs = append(pairs, [2]*qnet.Network{randomNetwork(s), randomNetwork(s)})
	}
	c4 := goldenModel(t, topo.Canada4Class(20, 20, 20, 20), numeric.IntVector{4, 4, 3, 2})
	mesh := realShapeModel(t, "mesh")
	pops := numeric.NewIntVector(mesh.R())
	s := rng.New(0x3e5)
	for r := range pops {
		pops[r] = 1 + s.Intn(8)
	}
	mesh, err := mesh.WithPopulations(pops)
	if err != nil {
		t.Fatal(err)
	}
	return append(pairs, [2]*qnet.Network{c4, mesh})
}

// TestApproximateBlockIndependence is the independence relation of the
// per-block fixed point: on a disjoint union A⊕B with the chains
// interleaved, Approximate returns exactly A's solution on A and B's on B,
// for both methods, undamped and damped, cold and warm-started, and the
// union's sweep count is the slower part's.
func TestApproximateBlockIndependence(t *testing.T) {
	cases := 0
	for pi, parts := range unionPairs(t) {
		u, from := disjointUnion(parts[0], parts[1])
		for _, m := range []Method{SigmaHeuristic, Schweitzer} {
			for _, damping := range []float64{0, 0.5} {
				opts := Options{Method: m, Damping: damping, MaxIter: 4000}
				tag := fmt.Sprintf("pair %d %v damping=%v", pi, m, damping)
				var alone [2]*Solution
				var warm [2]*WarmStart
				ok := true
				for p := range parts {
					sol, err := Approximate(parts[p], opts)
					if err != nil {
						ok = false
						break
					}
					alone[p], warm[p] = sol, WarmFromSolution(sol)
				}
				if !ok {
					continue
				}
				us, err := Approximate(u, opts)
				if err != nil {
					t.Fatalf("%s: union: %v", tag, err)
				}
				cases++
				for p := range parts {
					requirePartOfUnion(t, tag+" cold", us, from, p, parts, alone[p])
				}
				if want := max(alone[0].Iterations, alone[1].Iterations); us.Iterations != want {
					t.Errorf("%s cold: union took %d sweeps, slower part %d", tag, us.Iterations, want)
				}

				// Warm: each part re-solved at bumped populations from its
				// own seed; the union from the seeds put side by side.
				var bumped [2]*qnet.Network
				for p := range parts {
					if bumped[p], err = parts[p].WithPopulations(bumpedPops(parts[p])); err != nil {
						t.Fatal(err)
					}
				}
				ub, _ := disjointUnion(bumped[0], bumped[1])
				wopts := opts
				wopts.Warm = unionWarm(ub, from, parts, warm)
				uw, err := Approximate(ub, wopts)
				if err != nil {
					t.Fatalf("%s warm: union: %v", tag, err)
				}
				for p := range parts {
					popts := opts
					popts.Warm = warm[p]
					pw, err := Approximate(bumped[p], popts)
					if err != nil {
						t.Fatalf("%s warm: part %d: %v", tag, p, err)
					}
					requirePartOfUnion(t, tag+" warm", uw, from, p, bumped, pw)
				}
			}
		}
	}
	if cases < 60 {
		t.Fatalf("only %d converged union cases", cases)
	}
}

// TestApproximateNoSpillOver: changing B's populations leaves every output
// of A's chains bitwise unchanged, with one workspace carried through.
func TestApproximateNoSpillOver(t *testing.T) {
	checked := 0
	for pi, parts := range unionPairs(t) {
		u, from := disjointUnion(parts[0], parts[1])
		ws := NewWorkspace()
		var ref *Solution
		s := rng.New(uint64(pi))
		for step := 0; step < 4; step++ {
			pops := u.Populations()
			for k, f := range from {
				if f[0] == 1 {
					pops[k] = 1 + s.Intn(6)
				}
			}
			cand, err := u.WithPopulations(pops)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Workspace: ws}
			if ref == nil {
				opts.Workspace = nil // the reference must outlive the workspace's next solve
			}
			sol, err := Approximate(cand, opts)
			if err != nil {
				continue // B at these populations did not converge
			}
			if ref == nil {
				ref = sol
				continue
			}
			for k, f := range from {
				if f[0] != 0 {
					continue
				}
				same := math.Float64bits(sol.Throughput[k]) == math.Float64bits(ref.Throughput[k])
				for i := 0; i < u.N(); i++ {
					same = same && math.Float64bits(sol.QueueLen.At(i, k)) == math.Float64bits(ref.QueueLen.At(i, k)) &&
						math.Float64bits(sol.QueueTime.At(i, k)) == math.Float64bits(ref.QueueTime.At(i, k))
				}
				if !same {
					t.Errorf("pair %d step %d: A's chain %d moved with B's populations", pi, step, f[1])
				}
			}
			checked++
		}
	}
	if checked < 60 {
		t.Fatalf("only %d population changes checked", checked)
	}
}

// goldenModel is the prevalidated closed model of n at windows w.
func goldenModel(t *testing.T, n *netmodel.Network, w numeric.IntVector) *qnet.Network {
	t.Helper()
	model, _, err := n.ClosedModel(w)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := Prevalidate(model)
	if err != nil {
		t.Fatal(err)
	}
	return eff
}

// solutionDigest renders a solution's sweep count, throughput bits and an
// FNV-1a hash over every queue length and queue time bit pattern.
func solutionDigest(sol *Solution) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(x float64) {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	s := fmt.Sprintf("iter %d lam", sol.Iterations)
	for _, l := range sol.Throughput {
		s += fmt.Sprintf(" %#x", math.Float64bits(l))
		put(l)
	}
	for i := 0; i < sol.QueueLen.Rows; i++ {
		for r := 0; r < sol.QueueLen.Cols; r++ {
			put(sol.QueueLen.At(i, r))
			put(sol.QueueTime.At(i, r))
		}
	}
	return s + fmt.Sprintf(" hash %#x", h.Sum64())
}

// TestApproximateConnectedGolden pins Canada-2 and Canada-4 solutions to
// the bits the single-fixed-point iteration (revision
// "extrapolated-full-state-stop") produced: a connected network is one
// block, so its solve is that iteration, unchanged. Each case solves cold
// at w, then warm from that solution at w2.
func TestApproximateConnectedGolden(t *testing.T) {
	cases := []struct {
		name  string
		net   *netmodel.Network
		w, w2 numeric.IntVector
		// digests per method and damping, cold then warm
		want map[string][2]string
	}{
		{"canada2", topo.Canada2Class(20, 20), numeric.IntVector{3, 3}, numeric.IntVector{4, 3}, map[string][2]string{
			"sigma-heuristic 0": {
				"iter 21 lam 0x402a0e536274cddf 0x402a0e536274cddf hash 0xbed6afa7a932ce59",
				"iter 24 lam 0x402dc0f7b59b907f 0x4029d7d6e29d13cf hash 0x662426aba5d1864"},
			"sigma-heuristic 0.5": {
				"iter 25 lam 0x402a0e53625a4358 0x402a0e53625a4358 hash 0xcbf5ccf12269d93d",
				"iter 33 lam 0x402dc0f7b514632f 0x4029d7d6e2d8c60b hash 0xd4dced7463ee94e7"},
			"schweitzer 0": {
				"iter 15 lam 0x4029d5311940ead8 0x4029d5311940ead8 hash 0x6ecc6cb0eb84f4ed",
				"iter 18 lam 0x402d632677f84c2d 0x4029a531c9ae67c9 hash 0x2f122a75a10b3ba2"},
			"schweitzer 0.5": {
				"iter 19 lam 0x4029d53119204ac1 0x4029d53119204ac1 hash 0xd3f1a38462446815",
				"iter 22 lam 0x402d632678504050 0x4029a531c9dacd89 hash 0xe5e313f2397f222c"},
		}},
		{"canada4", topo.Canada4Class(20, 20, 20, 20), numeric.IntVector{4, 4, 3, 2}, numeric.IntVector{4, 5, 3, 2}, map[string][2]string{
			"sigma-heuristic 0": {
				"iter 27 lam 0x402b374b61d50f54 0x40265149e4b3844d 0x4024f24ed59a0a20 0x402d04e952f7a12c hash 0xd86920505eee5176",
				"iter 26 lam 0x402af7a2ccb49f9d 0x4028e3eaaffb38bb 0x4023a16f16ea95f9 0x402c4eec221a1556 hash 0xb00c2171746aa12b"},
			"sigma-heuristic 0.5": {
				"iter 48 lam 0x402b374b61a110ee 0x40265149e4db5c8d 0x4024f24ed627192c 0x402d04e9530fb12e hash 0xbc233391b743379b",
				"iter 30 lam 0x402af7a2cbed2703 0x4028e3eaaf3a26dd 0x4023a16f17436c65 0x402c4eec218af80d hash 0xe86087ad7f8a4094"},
			"schweitzer 0": {
				"iter 21 lam 0x402b2cd7f0d3c228 0x402635797f890a5d 0x4024aeb92db47b3d 0x402cae24a104adf5 hash 0x6bd15efc03369e85",
				"iter 21 lam 0x402af399b7b27f51 0x4028bfdfa12ae531 0x402355669bfc1d6e 0x402bffd7c0ef5617 hash 0xb733d246f9f808c"},
			"schweitzer 0.5": {
				"iter 31 lam 0x402b2cd7f0eb0cf2 0x402635797faa1d18 0x4024aeb92de73835 0x402cae24a0ff9d93 hash 0xeb361dc5faf67bf7",
				"iter 30 lam 0x402af399b7b1a08a 0x4028bfdfa155c8cb 0x402355669bf0ed3d 0x402bffd7c1495fdf hash 0xdd7062a0b967d867"},
		}},
	}
	for _, c := range cases {
		model := goldenModel(t, c.net, c.w)
		if b := qnet.Compile(model).Blocks(); b != 1 {
			t.Fatalf("%s: %d blocks, want one (connected)", c.name, b)
		}
		for _, m := range []Method{SigmaHeuristic, Schweitzer} {
			for _, d := range []float64{0, 0.5} {
				key := fmt.Sprintf("%v %v", m, d)
				cold, err := Approximate(model, Options{Method: m, Damping: d})
				if err != nil {
					t.Fatal(err)
				}
				warm, err := Approximate(goldenModel(t, c.net, c.w2), Options{Method: m, Damping: d, Warm: WarmFromSolution(cold)})
				if err != nil {
					t.Fatal(err)
				}
				for k, got := range [2]string{solutionDigest(cold), solutionDigest(warm)} {
					if got != c.want[key][k] {
						t.Errorf("%s %s %s:\n got %s\nwant %s", c.name, key, [2]string{"cold", "warm"}[k], got, c.want[key][k])
					}
				}
			}
		}
	}
}
