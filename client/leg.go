package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"auditreg/internal/telem"
	"auditreg/wire"
)

// ShareResult is one node's answer to one leg of a fan-out, delivered into
// the Round the leg was started with. Tag is the caller's label for the leg (a
// cluster fan-out tags each leg with its node's membership position); Value
// is what the blocking form of the op returns — the reader's current packed
// share for a fetch, the resident write id for a share write.
type ShareResult struct {
	Tag   int
	Value uint64
	Err   error
}

// Round is where the legs of one operation deliver and its one collector
// waits: a mutex, the results in arrival order and a one-token wake channel.
// The collector names how many deliveries are worth waking it for; a delivery
// short of that just appends. A blocking call is a Round of one leg.
//
// Pooled and reference counted — the collector holds it from NewRound to
// Release, each leg from Expect to its Deliver, the last hold recycles it —
// so a straggler delivering after its collector returned writes into a Round
// nobody else has yet, never into another operation's.
type Round struct {
	mu     sync.Mutex
	refs   int           // the collector, plus the legs that have not delivered
	res    []ShareResult // every delivery, in arrival order
	taken  int           // how many of them Wait has handed out
	need   int           // len(res) worth waking the parked collector for
	parked bool          // the collector is in Wait's select; cleared by whoever wakes it
	wake   chan struct{} // one token, sent by the deliverer that cleared parked
}

var rounds = sync.Pool{New: func() any { return &Round{wake: make(chan struct{}, 1)} }}

// NewRound returns an empty Round held by the caller, its collector.
func NewRound() *Round {
	r := rounds.Get().(*Round)
	r.refs, r.res, r.taken = 1, r.res[:0], 0
	return r
}

// Expect registers one more leg: exactly one Deliver will follow.
func (r *Round) Expect() {
	r.mu.Lock()
	r.refs++
	r.mu.Unlock()
}

// Deliver records one leg's result and lets go of the leg's hold. It wakes
// the collector if this is the delivery it parked for, or a failure, and
// never blocks: only the deliverer that found the collector parked sends a
// token, and the collector takes it before it parks (or lets go) again.
func (r *Round) Deliver(res ShareResult) {
	r.mu.Lock()
	r.res = append(r.res, res)
	wake := r.parked && (len(r.res) >= r.need || res.Err != nil)
	if wake {
		r.parked = false
	}
	r.unhold()
	if wake {
		r.wake <- struct{}{}
	}
}

// Release lets go of the collector's hold, or that of a leg that will not
// deliver after all.
func (r *Round) Release() {
	r.mu.Lock()
	r.unhold()
}

// unhold drops one hold and unlocks mu; the last hold recycles the Round.
func (r *Round) unhold() {
	r.refs--
	free := r.refs == 0
	r.mu.Unlock()
	if free {
		rounds.Put(r)
	}
}

// Wait blocks the collector until need results have been delivered in all,
// one it has not seen yet is a failure, or timeout (nil: never) fires first,
// which it reports. It returns the results delivered since the last Wait,
// valid until the collector's Release.
func (r *Round) Wait(need int, timeout <-chan struct{}) (fresh []ShareResult, timedOut bool) {
	r.mu.Lock()
	ready := len(r.res) >= need
	for _, res := range r.res[r.taken:] {
		ready = ready || res.Err != nil
	}
	if !ready {
		r.need, r.parked = need, true
		r.mu.Unlock()
		if timeout == nil { // the blocking calls' path: a plain receive, not a select
			<-r.wake
		} else {
			select {
			case <-r.wake:
			case <-timeout:
				r.mu.Lock()
				if timedOut = r.parked; timedOut {
					r.parked = false
				}
				r.mu.Unlock()
				if !timedOut { // a deliverer got there first: its token is on the way
					<-r.wake
				}
			}
		}
		r.mu.Lock()
	}
	fresh = r.res[r.taken:len(r.res):len(r.res)] // later deliveries append past it
	r.taken = len(r.res)
	r.mu.Unlock()
	return fresh, timedOut
}

// leg is one request of a hot verb (WRITE, READ-FETCH, SHARE-WRITE,
// SHARE-FETCH) in flight on a connection, and the completion the read loop
// runs for it: decode the response where it arrived, bring the reader's slot
// up to date and release it, deliver one ShareResult into the leg's Round.
// The blocking calls (Object.Write, Read, ShareWrite, ShareRead) are the
// collector of a Round of their own; a fan-out leg (StartShareWrite,
// StartShareRead) delivers into its caller's, so no goroutine exists for a
// leg while it is on the wire.
//
// The value fields describe the request, so a shed leg can be issued again.
type leg struct {
	o    *Object
	verb wire.Verb // the request's verb, which the response must echo

	val      uint64 // WRITE: the value; SHARE-WRITE: the masked share
	wid      uint64 // SHARE-WRITE: the write id
	shareLen uint8  // SHARE-WRITE: the packing width

	// The two fetch verbs: the reader's slot, locked from start until the
	// completion has updated it — which is what keeps at most one fetch in
	// flight per (object, reader) — and the connection's session secret the
	// response is masked under.
	slot    *readSlot
	reader  uint8
	session [wire.SessionLen]byte

	// fanOut marks a leg nobody is parked on. Its completion observes the
	// round trip itself, and a shed (CodeBusy) is retried here, on a
	// goroutine of its own — the read loop never sleeps.
	fanOut bool
	t0     int64 // telem.Now() at the first start, for the RTT histogram

	timer *time.Timer // request timeout, nil when none is configured
	tag   int
	out   *Round // start takes a hold on it for the leg's one Deliver
}

var legs = sync.Pool{New: func() any { return new(leg) }}

// start encodes l's request and sends it on cn, whose OpenResp for the
// object is or; l.slot, if any, is locked by the caller. It owns the leg in
// every outcome: after a nil return the leg belongs to the connection and
// its completion runs exactly once, maybe before start returns; on error
// nothing was sent and nothing will be delivered: the slot and the hold on
// its Round that start took for the leg are released and the leg recycled.
func (l *leg) start(cn *conn, or wire.OpenResp) error {
	name := l.o.name
	b := wire.GetBuf(wire.FramePrefix + 32 + len(name))
	b.B = wire.BeginFrame(b.B[:0])
	switch l.verb {
	case wire.VerbWrite:
		b.B = (&wire.WriteReq{Name: name, Value: l.val}).Append(b.B)
	case wire.VerbShareWrite:
		b.B = (&wire.ShareWriteReq{Name: name, Wid: l.wid, Share: l.val, ShareLen: l.shareLen}).Append(b.B)
	default:
		// The open (fresh or cached) pinned this connection's server boot
		// epoch. A connection only ever speaks to one server process, so a
		// slot cache filled under a different epoch was filled against a
		// different process generation — recovery renumbers, so drop it.
		s := l.slot
		if !s.init || s.epoch != or.Epoch {
			s.init = true
			s.epoch = or.Epoch
			s.prevSeq = ^uint64(0) // the paper's prev_sn = -1
		}
		l.session = or.Session
		// READ-FETCH and SHARE-FETCH carry the same body.
		b.B = (&wire.ReadFetchReq{Name: name, Reader: l.reader, PrevSeq: s.prevSeq}).Append(b.B)
	}
	l.timer = cn.arm()
	l.out.Expect()
	err := cn.send(l.verb, b, l)
	if err != nil {
		disarm(l.timer)
		if l.slot != nil {
			l.slot.mu.Unlock()
		}
		l.out.Release()
		legs.Put(l)
	}
	return err
}

// complete runs on the read loop (or on the closer of a dead connection).
func (l *leg) complete(verb wire.Verb, body []byte, err error) {
	disarm(l.timer)
	var v uint64
	if err == nil {
		v, err = l.decode(verb, body)
	}
	if l.slot != nil {
		l.slot.mu.Unlock()
	}
	res, out := ShareResult{Tag: l.tag, Value: v, Err: err}, l.out
	if l.fanOut {
		if errors.Is(err, wire.ErrBusy) {
			// The request never reached the store, so repeating it is safe.
			go l.o.reissue(*l)
			legs.Put(l)
			return
		}
		l.o.c.rtt.Observe(uint64(l.t0), telem.Now()-l.t0)
	}
	legs.Put(l)
	out.Deliver(res)
}

// decode turns the response into the op's result; a fetch also brings the
// reader's slot up to date, unmasking a new value under the session pad.
func (l *leg) decode(verb wire.Verb, body []byte) (uint64, error) {
	if verb != l.verb {
		return 0, respError(verb, body, l.verb)
	}
	switch verb {
	case wire.VerbWrite:
		if len(body) != 0 {
			return 0, fmt.Errorf("client: unexpected %d-byte ack body", len(body))
		}
		return 0, nil
	case wire.VerbShareWrite:
		var r wire.ShareWriteResp
		err := r.Decode(body)
		return r.Wid, err
	}
	var r wire.ReadFetchResp // either fetch verb
	if err := r.Decode(body); err != nil {
		return 0, err
	}
	s := l.slot
	if r.Seq != s.prevSeq {
		s.prevVal = r.Value ^ wire.ValueMask(l.session, l.o.name, l.reader, r.Seq)
		s.prevSeq = r.Seq
	}
	return s.prevVal, nil
}

// await runs the request p describes to completion on the calling
// goroutine: the blocking form of every hot verb. A request the server
// sheds under admission control is retried with jittered backoff (see
// retryBusy) — a shed request never reached the store, and every verb here
// is safe to repeat. Each attempt may land on a different pool connection,
// redialing a dead one and opening the object there first. The RTT
// stopwatch spans the retry loop: the recorded latency is what the caller
// experienced, backoff and redials included.
func (o *Object) await(p leg) (uint64, error) {
	rd := NewRound()
	defer rd.Release()
	p.o, p.out, p.fanOut = o, rd, false
	if p.t0 == 0 { // a re-issued fan-out leg keeps its first start
		p.t0 = telem.Now()
	}
	var res ShareResult
	sent := 0
	err := retryBusy(func() error {
		cn := o.c.pick()
		or, err := cn.open(o.name, o.wkind, 0)
		if err != nil {
			return err
		}
		if p.slot != nil {
			p.slot.mu.Lock()
		}
		l := legs.Get().(*leg)
		*l = p
		if err := l.start(cn, or); err != nil {
			return err
		}
		sent++
		fresh, _ := rd.Wait(sent, nil) // one delivery per attempt sent
		res = fresh[0]
		return res.Err
	})
	o.c.rtt.Observe(uint64(p.t0), telem.Now()-p.t0)
	return res.Value, err
}

// launch starts p as a fan-out leg from the calling goroutine without
// blocking it, reporting whether it did. The fast path applies only when
// nothing has to be waited for: the next pool connection is alive with the
// object open on it, and — for a fetch — the reader's slot is free (a
// straggler of an earlier round may still hold it). Otherwise nothing was
// sent, and a caller that needs the leg runs the blocking form on a goroutine
// of its own.
func (o *Object) launch(p leg, tag int, out *Round) bool {
	cn, _, _ := o.c.next()
	or, ok := cn.isOpen(o.name, o.wkind)
	if !ok {
		return false
	}
	if p.slot != nil && !p.slot.mu.TryLock() {
		return false
	}
	l := legs.Get().(*leg)
	*l = p
	l.o, l.tag, l.out, l.fanOut, l.t0 = o, tag, out, true, telem.Now()
	return l.start(cn, or) == nil // an error: the connection died under us
}

// reissue repeats a shed fan-out leg through the blocking path after the
// first backoff pause and delivers its result.
func (o *Object) reissue(p leg) {
	busySleep(busyJitter(busyBaseDelay))
	v, err := o.await(p)
	p.out.Deliver(ShareResult{Tag: p.tag, Value: v, Err: err})
}
