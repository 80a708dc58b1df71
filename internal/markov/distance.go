package markov

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/grid"
)

// DistanceChain builds the full transition matrix of the paper's distance
// Markov chain (states 0..d) for the given model and parameters, directly
// from the mechanism: a call arrival (probability c) or an update-triggering
// move out of ring d resets the state to 0; other moves shift the ring
// index; the remainder self-loops.
//
// It is the generic-matrix counterpart of chain.Stationary and exists so
// the structured O(d) solver can be cross-validated against a dense direct
// solution.
func DistanceChain(m chain.Model, p chain.Params, d int) (*Chain, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d < 0 {
		return nil, fmt.Errorf("markov: negative threshold %d", d)
	}
	mat := make([][]float64, d+1)
	for i := range mat {
		mat[i] = make([]float64, d+1)
	}
	for i := 0; i <= d; i++ {
		up := m.Up(p, i)
		down := m.Down(p, i)
		if i == 0 {
			if d >= 1 {
				mat[0][1] += up
				mat[0][0] += 1 - up
			} else {
				mat[0][0] = 1
			}
			continue
		}
		mat[i][0] += p.C
		if i < d {
			mat[i][i+1] += up
		} else {
			mat[i][0] += up
		}
		mat[i][i-1] += down
		mat[i][i] += 1 - p.C - up - down
	}
	return New(mat)
}

// CellWalk solves the paper's random walk (§2.1) cell by cell on the
// residing disk of threshold d: the 2d+1 cells of the line or the
// g(d) = 3d(d+1)+1 cells of the hexagonal plane. Each slot a call
// (probability c) resets the walk to the centre, and a move (probability
// q) goes to each neighbour with probability q/2 or q/6; a move beyond
// ring d is a location update, so it too resets to the centre. The
// remainder self-loops.
//
// It returns the stationary ring occupancy (rings 0..d) and the per-slot
// update probability, summed over the cells of ring d. Unlike the
// distance chain, it does not assume a terminal is spread evenly over
// the cells of its ring, which on the hexagonal plane it is not: corner
// and edge cells have different numbers of outward neighbours.
func CellWalk(k grid.Kind, p chain.Params, d int) (rings []float64, update float64, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if d < 0 {
		return nil, 0, fmt.Errorf("markov: negative threshold %d", d)
	}
	var ring []int
	var next [][]int
	if k == grid.OneDim {
		ring, next = diskMoves(grid.LineDisk(0, d), k.Degree())
	} else {
		ring, next = diskMoves(grid.HexDisk(grid.Hex{}, d), k.Degree())
	}
	move := p.Q / float64(k.Degree())
	mat := make([][]float64, len(ring))
	exit := make([]float64, len(ring))
	for i, to := range next {
		row := make([]float64, len(ring))
		row[0] += p.C
		row[i] += 1 - p.C - p.Q
		for _, j := range to {
			if j < 0 {
				exit[i] += move
				j = 0
			}
			row[j] += move
		}
		mat[i] = row
	}
	mc, err := New(mat)
	if err != nil {
		return nil, 0, err
	}
	pi, err := mc.Stationary()
	if err != nil {
		return nil, 0, err
	}
	rings = make([]float64, d+1)
	for i, v := range pi {
		rings[ring[i]] += v
		update += v * exit[i]
	}
	return rings, update, nil
}

// diskMoves indexes the cells of a disk: ring[i] is cell i's ring and
// next[i] lists the index of each of its degree neighbours, or −1 for a
// neighbour outside the disk.
func diskMoves[C interface {
	comparable
	Ring() int
	Neighbor(int) C
}](cells []C, degree int) (ring []int, next [][]int) {
	index := make(map[C]int, len(cells)) // one past the index; 0 outside
	for i, c := range cells {
		index[c] = i + 1
	}
	for _, c := range cells {
		to := make([]int, degree)
		for n := range to {
			to[n] = index[c.Neighbor(n)] - 1
		}
		ring = append(ring, c.Ring())
		next = append(next, to)
	}
	return ring, next
}
