package client

import (
	"fmt"

	"auditreg/wire"
)

// This file is the client side of the cluster share plane: the two verbs a
// dispersing client (package auditreg/cluster) drives against each node of a
// quorum. A share object is an ordinary MaxRegister holding the packed
// (wid, masked share) value — wid in the high bits, this node's pad-masked
// IDA share in the low 8*shareLen bits — so writeMax gives newest-wid-wins
// and duplicate absorption for free. The methods here move single packed
// values for ONE node; splitting, pad derivation, quorum counting, and
// reconstruction all live in the cluster package.

// ShareWrite installs this node's share of dispersed write wid: a writeMax
// of wid<<(8*shareLen) | share on the named MaxRegister, journaled like any
// write. The share must already be masked under the node's share pad — the
// client sends exactly what it is given. Wid zero is the wid-sync probe: no
// write happens and the call returns the node's current resident wid (zero
// when the object has never taken a share). In every case the returned wid
// is the resident one after the call, so a stale writer discovers the newer
// wid it lost to.
func (o *Object) ShareWrite(wid, share uint64, shareLen int) (uint64, error) {
	if shareLen < 1 || shareLen > wire.MaxShareLen {
		return 0, fmt.Errorf("client: share-write %q: share-len %d out of range [1, %d]", o.name, shareLen, wire.MaxShareLen)
	}
	return o.await(leg{verb: wire.VerbShareWrite, wid: wid, val: share, shareLen: uint8(shareLen)})
}

// ShareRead returns the node's current packed share value as seen by the
// given reader index — Object.Read over the share plane: one SHARE-FETCH,
// silent when the per-node slot cache is current, the helping announce
// performed by the node after a fetch — so the node's audit history records
// the read exactly as a plain read would be recorded. The packed value
// arrives masked under the connection's session secret and is unmasked here;
// unpacking wid from share — and unmasking the share pad — is the cluster
// caller's job.
func (o *Object) ShareRead(reader int) (uint64, error) {
	return o.fetch(wire.VerbShareFetch, reader)
}

// StartShareWrite is ShareWrite as one leg of a fan-out: when it reports
// true the request is on its way and exactly one ShareResult tagged tag will
// be delivered into out by the connection's read loop; the caller's goroutine
// never waited. False means the leg cannot start without waiting (dead or not
// yet opened connection, invalid arguments): nothing was sent and nothing
// will be delivered, and a caller that needs the leg runs ShareWrite on a
// goroutine of its own, which redials, opens and reports errors.
func (o *Object) StartShareWrite(wid, share uint64, shareLen, tag int, out *Round) bool {
	if shareLen < 1 || shareLen > wire.MaxShareLen {
		return false
	}
	return o.launch(leg{verb: wire.VerbShareWrite, wid: wid, val: share, shareLen: uint8(shareLen)}, tag, out)
}

// StartShareRead is ShareRead as one leg of a fan-out; see StartShareWrite.
// It also reports false while an earlier fetch of the same reader is still
// on the wire — a straggler of the reader's previous round holds the slot —
// so a hung node never costs the next round its caller's time.
func (o *Object) StartShareRead(reader, tag int, out *Round) bool {
	if reader < 0 || reader >= o.readers {
		return false
	}
	return o.launch(leg{verb: wire.VerbShareFetch, slot: &o.slots[reader], reader: uint8(reader)}, tag, out)
}
