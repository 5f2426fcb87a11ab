// Package poolsafe is a linter fixture for the pooled-object lifecycle
// rule: no read, write, re-queue, or second release after a release.
package poolsafe

// Obj is a pooled object shaped like node.Packet.
type Obj struct {
	next *Obj
	Seq  int
}

// ObjPool is a minimal free-list pool shaped like node.PacketPool.
type ObjPool struct{ free *Obj }

// Get pops the free list or allocates.
func (p *ObjPool) Get() *Obj {
	if p.free == nil {
		return &Obj{}
	}
	o := p.free
	p.free = o.next
	o.next = nil
	return o
}

// Put pushes o back onto the free list.
func (p *ObjPool) Put(o *Obj) {
	o.next = p.free
	p.free = o
}

func useAfterRelease(pp *ObjPool) int {
	o := pp.Get()
	pp.Put(o)
	return o.Seq // want poolsafe "pooled o used after release"
}

func doubleRelease(pp *ObjPool) {
	o := pp.Get()
	pp.Put(o)
	pp.Put(o) // want poolsafe "pooled o released twice"
}

func requeueAfterRelease(pp *ObjPool, sink func(*Obj)) {
	o := pp.Get()
	pp.Put(o)
	sink(o) // want poolsafe "pooled o used after release"
}

func writeAfterRelease(pp *ObjPool) {
	o := pp.Get()
	pp.Put(o)
	o.Seq = 7 // want poolsafe "pooled o used after release"
}

// reacquire is legal: the reassignment re-arms the variable.
func reacquire(pp *ObjPool) int {
	o := pp.Get()
	pp.Put(o)
	o = pp.Get()
	return o.Seq
}

// branchRelease is legal on the main path: an if-body release may not
// execute, so it must not leak out of the branch.
func branchRelease(pp *ObjPool, done bool) int {
	o := pp.Get()
	if done {
		pp.Put(o)
	}
	return o.Seq
}

// deferRelease is legal: the release happens at function exit.
func deferRelease(pp *ObjPool) int {
	o := pp.Get()
	defer pp.Put(o)
	return o.Seq
}

// Owner releases through a put-prefixed method wrapping the pool.
type Owner struct{ pool ObjPool }

func (w *Owner) putObj(o *Obj) { w.pool.Put(o) }

func viaPutMethod(w *Owner, pp *ObjPool) int {
	o := pp.Get()
	w.putObj(o)
	return o.Seq // want poolsafe "pooled o used after release"
}

// suppressedUse shows a reasoned suppression silencing the rule.
func suppressedUse(pp *ObjPool) int {
	o := pp.Get()
	pp.Put(o)
	// lint:ignore poolsafe this fixture's Put never recycles Seq, the read races nothing
	return o.Seq
}
