// Package snapshotescape is a golden fixture for the snapshotescape
// analyzer: it imports the real engine so violations are checked
// against the real *engine.Snapshot type. Lines carrying a `// want`
// comment must produce a diagnostic matching the quoted regexp; every
// other line must stay silent.
package snapshotescape

import (
	"lightpath/internal/core"
	"lightpath/internal/engine"
)

type holder struct {
	snap *engine.Snapshot // want `struct field of type \*lightpath/internal/engine\.Snapshot`
}

var global *engine.Snapshot // want `package-level variable global`

func useAfterAdvance(e *engine.Engine) {
	snap := e.Snapshot()
	_, _ = snap.Route(0, 1) // pinned and fresh: fine
	_ = e.Release(7)
	_, _ = snap.Route(0, 1) // want `snapshot snap used after epoch-advancing call Engine\.Release`
	snap = e.Snapshot()
	_, _ = snap.Route(0, 1) // re-pinned: fine
}

func useAfterSpannedAdvance(e *engine.Engine) {
	snap := e.Snapshot()
	_ = e.ReleaseSpanned(7, nil)
	_, _ = snap.Route(0, 1) // want `snapshot snap used after epoch-advancing call Engine\.ReleaseSpanned`
	snap = e.Snapshot()
	_ = e.AllocateSpanned(8, nil, nil)
	_, _ = snap.RouteFrom(0) // want `snapshot snap used after epoch-advancing call Engine\.AllocateSpanned`
	snap = e.Snapshot()
	_, _ = e.RouteAndAllocateSpanned(9, 0, 1, nil)
	_, _ = snap.Route(0, 1) // want `snapshot snap used after epoch-advancing call Engine\.RouteAndAllocateSpanned`
}

func siblingBranches(e *engine.Engine, cond bool) {
	snap := e.Snapshot()
	if cond {
		_ = e.RepairLink(1)
	} else {
		_, _ = snap.Route(0, 1) // sibling of the advance: fine
	}
	_, _ = snap.KShortest(0, 1, 2) // want `snapshot snap used after epoch-advancing call Engine\.RepairLink`
}

func escapes(e *engine.Engine, ch chan *engine.Snapshot) {
	snap := e.Snapshot()
	ch <- snap                             // want `sending \*engine\.Snapshot on a channel`
	m := map[int]*engine.Snapshot{0: snap} // want `storing \*engine\.Snapshot in a composite value`
	_ = m
	h := &holder{}
	h.snap = snap // want `storing \*engine\.Snapshot in a durable location`
	var auxCache struct{ aux *core.Aux }
	auxCache.aux = snap.Aux() // want `storing Snapshot\.Aux\(\) in a durable location`
	_ = auxCache
	fn := func() { _, _ = snap.Route(0, 1) } // want `closure captures snapshot snap and escapes`
	fn()
}

func derivedUseAfterAdvance(e *engine.Engine) {
	snap := e.Snapshot()
	aux := snap.Aux()
	net := snap.Network()
	_, _ = aux.Route(0, 1, nil) // derived and fresh: fine
	_, _ = e.FailLink(3)
	_, _ = aux.Route(0, 1, nil) // want `snapshot-derived aux \(Snapshot\.Aux\(\)\) used after epoch-advancing call Engine\.FailLink`
	_ = net.NumLinks()          // want `snapshot-derived net \(Snapshot\.Network\(\)\) used after epoch-advancing call Engine\.FailLink`
	snap = e.Snapshot()
	aux = snap.Aux() // re-derived from the fresh pin: fine
	_, _ = aux.Route(0, 1, nil)
}

func deltaOverlayAfterAdvance(e *engine.Engine, changed []int) {
	snap := e.Snapshot()
	aux := snap.Aux()
	net := snap.Network()
	patched, err := net.PatchChannels(nil)
	if err != nil {
		return
	}
	next, err := aux.ApplyDelta(patched, changed)
	if err != nil {
		return
	}
	_, _ = next.Route(0, 1, nil) // overlay on the pinned epoch: fine
	_ = e.Release(9)
	_, _ = next.Route(0, 1, nil)                 // want `snapshot-derived next \(ApplyDelta of Snapshot\.Aux\(\)\) used after epoch-advancing call Engine\.Release`
	_ = patched.NumLinks()                       // want `snapshot-derived patched \(PatchChannels of Snapshot\.Network\(\)\) used after epoch-advancing call Engine\.Release`
	fresh, _ := core.NewAux(nil)                 // not snapshot-derived: never tracked
	_, _ = fresh.Route(0, 1, nil)                // fine before and after advances
	next, _ = fresh.ApplyDelta(patched, changed) // want `snapshot-derived patched`
	_, _ = next.Route(0, 1, nil)                 // reassigned from a non-derived source: fine
}

func boundedClosures(e *engine.Engine, run func(func())) {
	snap := e.Snapshot()
	run(func() { _, _ = snap.Route(0, 1) })           // handed to a call: fine
	go func() { _, _ = snap.RouteVia(0, 1) }()        // go statement: fine
	defer func() { _, _ = snap.KShortest(0, 1, 1) }() // defer statement: fine
}
