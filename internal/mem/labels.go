package mem

import (
	"sync"
	"sync/atomic"
)

// labels are the step labels of the objects named name: "<name>.<kind>",
// the op-naming contract the scheduler's independence relation reads
// (sched.OpIndependent). Protocols construct their objects once per run,
// and exploration engines execute millions of runs, so a label is built
// once per name — not concatenated on every step — and shared read-only
// by every object of that name.
type labels struct {
	name                                 string
	read, write, writeStart, writeCommit string
	snapshot                             string
	tas, fetchinc, invoke                string
	ktas, kleader, propose               string
}

func newLabels(name string) *labels {
	return &labels{
		name:        name,
		read:        name + ".read",
		write:       name + ".write",
		writeStart:  name + ".write-start",
		writeCommit: name + ".write-commit",
		snapshot:    name + ".snapshot",
		tas:         name + ".tas",
		fetchinc:    name + ".fetchinc",
		invoke:      name + ".invoke",
		ktas:        name + ".ktas",
		kleader:     name + ".kleader",
		propose:     name + ".propose",
	}
}

// labelTable maps object names to their labels, capped like boxDraws.
var labelTable = cappedMap{max: 1 << 14}

// labelsFor returns the labels of the objects named name.
//
//gsb:hotpath
func labelsFor(name string) *labels {
	if v, ok := labelTable.m.Load(name); ok {
		return v.(*labels)
	}
	return labelTable.store(name, newLabels(name)).(*labels)
}

// cappedMap is a read-mostly memo shared by concurrent exploration
// workers: a sync.Map (lock-free hits, a handful of inserts) whose entry
// count is capped as a safety valve for callers that sweep unboundedly
// many keys. Values must be pure functions of their keys, so evicting
// one only costs recomputing it.
type cappedMap struct {
	m     sync.Map
	count atomic.Int64
	max   int64
}

// store inserts v under k unless another goroutine got there first, and
// returns the value the map holds for k.
func (c *cappedMap) store(k, v any) any {
	if old, loaded := c.m.LoadOrStore(k, v); loaded {
		return old // another worker computed it first; share one value
	}
	if c.count.Add(1) > c.max {
		// Over capacity: evict an arbitrary other entry rather than
		// refusing inserts — a refused hot key (one box constructed per
		// re-executed run) would be recomputed forever, while an evicted
		// hot key is simply re-inserted on its next run.
		c.m.Range(func(other, _ any) bool {
			if other == k {
				return true
			}
			// Only the goroutine that actually removed the entry may
			// decrement, or racing evictors of one victim would
			// undercount the map and erode the cap.
			if _, removed := c.m.LoadAndDelete(other); removed {
				c.count.Add(-1)
			}
			return false
		})
	}
	return v
}
