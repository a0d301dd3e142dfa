package apps

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// TaskQueue is the producer-consumer task farm: node 0 appends task
// descriptors to a shared queue under a lock; every node (including
// node 0 once production ends) pops tasks, computes, and stores the
// result. Synchronization is lock-only with every shared word bound
// to the queue lock, so it runs under entry consistency — it is the
// mutual-exclusion-bound workload of experiment E8/E9.
type TaskQueue struct {
	tasks int
	work  int

	head, tail int64 // queue cursors
	queue      int64 // ring of task ids (capacity tasks + nodes)
	results    int64 // one slot per task
	cap        int
}

const tqLock int32 = 11

// NewTaskQueue creates a farm of `tasks` tasks, each spinning `work`
// units of deterministic arithmetic. A unit is long enough (about
// 10 µs) that the farm stays lock-migratory: with cached lock tokens,
// tasks of nanoseconds let the producer drain the queue with local
// re-acquires before a consumer's first request arrives.
func NewTaskQueue(tasks, work int) *TaskQueue {
	return &TaskQueue{tasks: tasks, work: work}
}

// Name implements App.
func (a *TaskQueue) Name() string { return fmt.Sprintf("taskqueue-%dx%d", a.tasks, a.work) }

// LocksOnly implements App.
func (a *TaskQueue) LocksOnly() bool { return true }

// Setup implements App.
func (a *TaskQueue) Setup(c *core.Cluster) error {
	a.cap = a.tasks + c.N() + 1
	var err error
	if a.head, err = c.AllocPage(8); err != nil {
		return err
	}
	if a.tail, err = c.Alloc(8, 8); err != nil {
		return err
	}
	if a.queue, err = c.Alloc(int64(a.cap)*8, 8); err != nil {
		return err
	}
	if a.results, err = c.AllocPage(int64(a.tasks) * 8); err != nil {
		return err
	}
	c.Bind(tqLock, a.head, 16+a.cap*8) // head, tail, queue are contiguous
	c.Bind(tqLock, a.results, a.tasks*8)
	return nil
}

// compute is the task body: ten thousand multiply-adds per unit.
func (a *TaskQueue) compute(task int64) uint64 {
	acc := uint64(task) + 1
	for i := 0; i < a.work*10000; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

// Run implements App.
func (a *TaskQueue) Run(n *core.Node) error {
	if n.ID() == 0 {
		// Produce every task plus one poison pill per node.
		for i := 0; i < a.tasks+n.N(); i++ {
			task := int64(i)
			if i >= a.tasks {
				task = -1
			}
			if err := n.Acquire(tqLock); err != nil {
				return err
			}
			t, err := n.ReadInt64(a.tail)
			if err != nil {
				return err
			}
			if err := n.WriteInt64(a.queue+(t%int64(a.cap))*8, task); err != nil {
				return err
			}
			if err := n.WriteInt64(a.tail, t+1); err != nil {
				return err
			}
			if err := n.Release(tqLock); err != nil {
				return err
			}
		}
	}
	backoff := 20 * time.Microsecond
	for {
		if err := n.Acquire(tqLock); err != nil {
			return err
		}
		h, err := n.ReadInt64(a.head)
		if err != nil {
			return err
		}
		t, err := n.ReadInt64(a.tail)
		if err != nil {
			return err
		}
		if h == t {
			if err := n.Release(tqLock); err != nil {
				return err
			}
			// Exponential backoff while the queue is empty: N spinning
			// consumers on a FIFO queue lock would otherwise convoy
			// the producer out of the lock.
			time.Sleep(backoff)
			if backoff < 2*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		backoff = 20 * time.Microsecond
		task, err := n.ReadInt64(a.queue + (h%int64(a.cap))*8)
		if err != nil {
			return err
		}
		if err := n.WriteInt64(a.head, h+1); err != nil {
			return err
		}
		if task < 0 {
			// Poison: leave it consumed and exit.
			return n.Release(tqLock)
		}
		if err := n.Release(tqLock); err != nil {
			return err
		}
		res := a.compute(task)
		// Store the result under the lock (entry consistency requires
		// bound data to be touched only while holding its lock).
		if err := n.Acquire(tqLock); err != nil {
			return err
		}
		if err := n.WriteUint64(a.results+task*8, res); err != nil {
			return err
		}
		if err := n.Release(tqLock); err != nil {
			return err
		}
	}
}

// Verify implements App.
func (a *TaskQueue) Verify(c *core.Cluster) error {
	n0 := c.Node(0)
	if err := n0.Acquire(tqLock); err != nil {
		return err
	}
	defer func() { _ = n0.Release(tqLock) }()
	for i := 0; i < a.tasks; i++ {
		got, err := n0.ReadUint64(a.results + int64(i)*8)
		if err != nil {
			return err
		}
		if want := a.compute(int64(i)); got != want {
			return fmt.Errorf("taskqueue: result[%d] = %d, want %d", i, got, want)
		}
	}
	return nil
}
