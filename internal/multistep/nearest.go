package multistep

// Neighbor is one result of a nearest-neighbour query: an object ID with
// its exact distance to the query point (0 when the point lies in the
// object's region). Nearest queries run through the unified Query entry
// point with the ForNearest target (see api.go).
type Neighbor struct {
	ID   int32
	Dist float64
}

// CompareNeighbors orders neighbours by (distance, ID), the order of
// every nearest answer.
func CompareNeighbors(a, b Neighbor) int {
	switch {
	case a.Dist < b.Dist:
		return -1
	case a.Dist > b.Dist:
		return 1
	default:
		return int(a.ID - b.ID)
	}
}

// kNearest holds the least cap(h) neighbours offered so far, by
// CompareNeighbors. Once full it is a max-heap: h[0] is the greatest of
// them, the k-th neighbour.
type kNearest []Neighbor

func (h *kNearest) offer(n Neighbor) {
	switch b := *h; {
	case len(b) < cap(b):
		b = append(b, n)
		if len(b) == cap(b) {
			for i := len(b)/2 - 1; i >= 0; i-- {
				b.down(i)
			}
		}
		*h = b
	case CompareNeighbors(n, b[0]) < 0:
		b[0] = n
		b.down(0)
	}
}

// down restores the heap order below position i.
func (h kNearest) down(i int) {
	for {
		big := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if CompareNeighbors(h[c], h[big]) > 0 {
				big = c
			}
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
