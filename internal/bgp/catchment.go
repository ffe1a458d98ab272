package bgp

import "repro/internal/netutil"

// Catchment is the data-plane catchment of one prefix at one instant:
// for every speaker, the router where traffic toward the prefix ends
// when each hop forwards it along its best route (the specific route
// where the hop holds one, its default route otherwise: NextHopLPM),
// and how many routers that walk visits, both ends counted. A walk that
// reaches a speaker without a route, a router that is not a speaker, or
// a forwarding loop has no terminal.
//
// The view is a copy: it does not follow the network after Catchment
// returns. It is only read once filled, so any number of goroutines may
// read it at once.
type Catchment struct {
	cells []catchCell // by RouterID
}

// catchCell is one router's entry: hops > 0 marks a terminal. While
// the view fills, 0 is a router not yet reached, cellOnStack one on the
// walk in progress and cellFailed one without a terminal.
type catchCell struct {
	term RouterID
	hops int32
}

const (
	cellOnStack int32 = -1
	cellFailed  int32 = -2
)

// Catchment fills p's catchment. Each speaker's next hop is read once:
// the walk from a speaker stops at the first router already resolved
// and hands its result back down the stack, and a walk that comes back
// to a router still on its stack is a loop, which leaves every router
// on the stack without a terminal.
func (n *Network) Catchment(p netutil.Prefix) *Catchment {
	c := &Catchment{}
	if len(n.order) == 0 {
		return c
	}
	// RouterIDs are dense (see StaticSolver.speakers) and order is
	// ascending.
	c.cells = make([]catchCell, n.order[len(n.order)-1]+1)
	var stack []RouterID
	for _, id := range n.order {
		// tail is what the router on top of the stack inherits; hops
		// counts up once per router as the stack unwinds.
		tail := catchCell{hops: cellFailed}
		for cur := id; ; {
			if h := c.cells[cur].hops; h != 0 {
				if h != cellOnStack {
					tail = c.cells[cur]
				}
				break
			}
			c.cells[cur].hops = cellOnStack
			stack = append(stack, cur)
			next, ok := n.NextHopLPM(cur, p)
			if !ok || int(next) >= len(c.cells) {
				break
			}
			if next == cur {
				tail = catchCell{term: cur}
				break
			}
			cur = next
		}
		for i := len(stack) - 1; i >= 0; i-- {
			if tail.hops != cellFailed {
				tail.hops++
			}
			c.cells[stack[i]] = tail
		}
		stack = stack[:0]
	}
	return c
}

// Terminal returns the router where forwarding from id toward the
// view's prefix ends, and how many routers the walk visits, both ends
// counted. ok is false when the walk has no terminal, and for an id
// that is not a speaker.
func (c *Catchment) Terminal(id RouterID) (term RouterID, hops int, ok bool) {
	if int(id) >= len(c.cells) || c.cells[id].hops <= 0 {
		return 0, 0, false
	}
	return c.cells[id].term, int(c.cells[id].hops), true
}
