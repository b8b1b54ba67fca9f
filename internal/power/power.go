// Package power implements the thesis's performance criterion — the
// network "power" P = throughput / mean network delay (Giessler et al.
// [5]) — together with Kleinrock's p-hop M/M/1 reference model (eq. 4.21)
// whose optimum motivates the hop-count window rule used to initialise
// WINDIM.
package power

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/mva"
	"repro/internal/qnet"
)

// Metrics summarises a window-controlled network's performance at one
// operating point.
type Metrics struct {
	// ClassThroughput[r] is chain r's throughput in messages/second.
	ClassThroughput []float64
	// ClassDelay[r] is chain r's mean network delay in seconds (time in
	// the network's link queues; the source queue is excluded, V(r) =
	// Q(r) - source in the thesis's notation).
	ClassDelay []float64
	// Throughput is the total network throughput (messages/second).
	Throughput float64
	// Delay is the average network delay over all messages:
	// sum_r N_r(network) / sum_r lambda_r (Little over the network
	// queues).
	Delay float64
	// Power is Throughput / Delay; the WINDIM objective is 1/Power.
	Power float64
}

// FromSolution derives power metrics from a solved closed-chain model.
// excluded[r] lists the station indices of chain r's reentrant sink→source
// path (source queue, acknowledgement station) left out of the network
// delay; a nil entry counts every station as network.
func FromSolution(net *qnet.Network, sol *mva.Solution, excluded [][]int) (*Metrics, error) {
	if len(excluded) != net.R() {
		return nil, fmt.Errorf("power: %d exclusion lists for %d chains", len(excluded), net.R())
	}
	m := &Metrics{}
	m.size(net.R())
	for r := range m.ClassDelay {
		n := 0.0
		for i := 0; i < net.N(); i++ {
			if !slices.Contains(excluded[r], i) {
				n += sol.QueueLen.At(i, r)
			}
		}
		m.ClassDelay[r] = n
	}
	m.finish(sol.Throughput)
	return m, nil
}

// Routes is the compiled network-delay support of a closed-chain model:
// per chain, the stations it visits minus its excluded sink→source
// stations, in ascending station order. core.Engine builds it once and
// derives every candidate's metrics from it in O(route length).
type Routes struct {
	// Chain r's stations are station[ptr[r]:ptr[r+1]].
	ptr     []int32
	station []int32
}

// NewRoutes compiles the network-delay routes of net under the exclusion
// lists FromSolution takes.
func NewRoutes(net *qnet.Network, excluded [][]int) (*Routes, error) {
	if len(excluded) != net.R() {
		return nil, fmt.Errorf("power: %d exclusion lists for %d chains", len(excluded), net.R())
	}
	rt := &Routes{ptr: make([]int32, net.R()+1)}
	for r := range net.Chains {
		for i, v := range net.Chains[r].Visits {
			if v > 0 && !slices.Contains(excluded[r], i) {
				rt.station = append(rt.station, int32(i))
			}
		}
		rt.ptr[r+1] = int32(len(rt.station))
	}
	return rt, nil
}

// MetricsInto is FromSolution over the compiled routes, writing into a
// caller-owned Metrics and reusing its slices when they are large enough
// — the zero-allocation path core.Engine takes for every search
// candidate. The result is bit-identical to FromSolution's: the stations
// it skips are off the chain's visit list, where every solver leaves the
// queue length at exactly 0, and adding 0 changes no sum.
func (rt *Routes) MetricsInto(m *Metrics, sol *mva.Solution) {
	m.size(len(rt.ptr) - 1)
	for r := range m.ClassDelay {
		n := 0.0
		for _, i := range rt.station[rt.ptr[r]:rt.ptr[r+1]] {
			n += sol.QueueLen.At(int(i), r)
		}
		m.ClassDelay[r] = n
	}
	m.finish(sol.Throughput)
}

// size gives m nCh-long class slices, reusing them when large enough.
func (m *Metrics) size(nCh int) {
	if cap(m.ClassThroughput) >= nCh && cap(m.ClassDelay) >= nCh {
		m.ClassThroughput = m.ClassThroughput[:nCh]
		m.ClassDelay = m.ClassDelay[:nCh]
	} else {
		m.ClassThroughput = make([]float64, nCh)
		m.ClassDelay = make([]float64, nCh)
	}
}

// finish turns the per-class network queue lengths staged in ClassDelay
// into the metrics, given the chain throughputs.
func (m *Metrics) finish(lam []float64) {
	m.Throughput, m.Delay, m.Power = 0, 0, 0
	totalN := 0.0
	for r, l := range lam {
		n := m.ClassDelay[r]
		m.ClassThroughput[r] = l
		m.Throughput += l
		totalN += n
		m.ClassDelay[r] = 0
		if l > 0 {
			m.ClassDelay[r] = n / l
		}
	}
	if m.Throughput > 0 {
		m.Delay = totalN / m.Throughput
	}
	if m.Delay > 0 {
		m.Power = m.Throughput / m.Delay
	}
}

// Objective returns the WINDIM objective F = 1/P = Delay/Throughput, with
// +Inf for degenerate operating points (zero throughput), so that the
// pattern search treats them as maximally undesirable.
func (m *Metrics) Objective() float64 {
	if m.Power <= 0 || math.IsNaN(m.Power) {
		return math.Inf(1)
	}
	return 1 / m.Power
}

// ClassPower returns chain r's own power P_r = lambda_r / T_r, or 0 when
// the chain carries no traffic.
func (m *Metrics) ClassPower(r int) float64 {
	if m.ClassDelay[r] <= 0 {
		return 0
	}
	return m.ClassThroughput[r] / m.ClassDelay[r]
}

// MinClassPower returns the smallest per-class power — the fairness
// criterion of the dimensioning extension (maximising it protects the
// weakest virtual channel instead of the aggregate).
func (m *Metrics) MinClassPower() float64 {
	min := math.Inf(1)
	for r := range m.ClassThroughput {
		if p := m.ClassPower(r); p < min {
			min = p
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// SumClassPower returns the sum of per-class powers, a per-channel
// alternative to the thesis's aggregate ratio.
func (m *Metrics) SumClassPower() float64 {
	s := 0.0
	for r := range m.ClassThroughput {
		s += m.ClassPower(r)
	}
	return s
}

// Kleinrock is the p-hop M/M/1 reference model of [52] (Ch. 4 §4.6): a
// chain of Hops identical M/M/1 queues with aggregate capacity Mu
// messages/second per hop and instantaneous end-to-end acknowledgements.
type Kleinrock struct {
	// Hops is the number of store-and-forward hops on the virtual
	// channel.
	Hops int
	// Mu is the per-hop service rate in messages/second.
	Mu float64
}

// Delay returns the model's total average network delay at network
// throughput lambda (eq. 4.21): T = Hops / (Mu - lambda). It returns +Inf
// at or beyond saturation.
func (k Kleinrock) Delay(lambda float64) float64 {
	if lambda >= k.Mu {
		return math.Inf(1)
	}
	return float64(k.Hops) / (k.Mu - lambda)
}

// ThroughputForWindow returns the throughput lambda(E) implied by a
// window of E messages over the channel: Little's law over the closed
// loop gives E = lambda * T(lambda), so lambda = E*Mu/(Hops+E).
func (k Kleinrock) ThroughputForWindow(e int) float64 {
	if e <= 0 {
		return 0
	}
	return float64(e) * k.Mu / (float64(k.Hops) + float64(e))
}

// PowerForWindow returns P(E) = lambda(E)/T(lambda(E)) for a window of E.
func (k Kleinrock) PowerForWindow(e int) float64 {
	lam := k.ThroughputForWindow(e)
	t := k.Delay(lam)
	if t <= 0 || math.IsInf(t, 1) {
		return 0
	}
	return lam / t
}

// OptimalWindow returns the window maximising the model's power. For the
// p-hop M/M/1 chain the optimum is exactly E = Hops (lambda = Mu/2), the
// rule the thesis credits to Kleinrock and uses to initialise WINDIM and
// as the Table 4.12 baseline (the "(4 4 3 1)" settings).
func (k Kleinrock) OptimalWindow() int { return k.Hops }
