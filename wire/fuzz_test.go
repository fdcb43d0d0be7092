package wire_test

import (
	"io"
	"reflect"
	"testing"

	"auditreg/wire"
)

// decoderFor returns a fresh message of the type(s) a verb can carry in the
// given direction; both directions are tried by the fuzzer since a frame's
// direction is not self-describing.
func decodersFor(verb wire.Verb) []message {
	switch verb {
	case wire.VerbErr:
		return []message{&wire.ErrResp{}}
	case wire.VerbOpen:
		return []message{&wire.OpenReq{}, &wire.OpenResp{}}
	case wire.VerbWrite:
		return []message{&wire.WriteReq{}}
	case wire.VerbReadFetch:
		return []message{&wire.ReadFetchReq{}, &wire.ReadFetchResp{}}
	case wire.VerbAudit:
		return []message{&wire.AuditReq{}, &wire.AuditResp{}}
	case wire.VerbStats:
		return []message{&wire.StatsReq{}, &wire.StatsResp{}}
	case wire.VerbShareWrite:
		return []message{&wire.ShareWriteReq{}, &wire.ShareWriteResp{}}
	case wire.VerbShareFetch:
		return []message{&wire.ShareFetchReq{}, &wire.ShareFetchResp{}}
	default:
		return nil
	}
}

// FuzzFrame hammers the frame parser and every message decoder with
// arbitrary bytes: no panic, no out-of-bounds, and for every body that
// decodes, re-encoding and re-decoding must reproduce the same message
// (decode is a retraction of encode). The seed corpus under
// testdata/fuzz/FuzzFrame holds one valid frame per verb plus malformed
// shapes; run the short saturation pass with
//
//	go test -fuzz FuzzFrame -fuzztime 30s ./wire
func FuzzFrame(f *testing.F) {
	// In-code seeds complement the checked-in corpus: one frame per sample
	// message, a concatenation, and truncations.
	var all []byte
	for i, msg := range sampleMessages() {
		frame := wire.AppendFrame(nil, uint64(i), wire.VerbOpen+wire.Verb(i%8), msg.Append(nil))
		f.Add(frame)
		all = append(all, frame...)
	}
	f.Add(all)
	f.Add(all[:len(all)/2])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for depth := 0; depth < 64; depth++ {
			frame, next, err := wire.ParseFrame(rest)
			if err != nil {
				if err == io.ErrUnexpectedEOF && len(rest) >= 4+wire.MaxFrame {
					t.Fatalf("ParseFrame demanded more than MaxFrame bytes")
				}
				return
			}
			if len(next) >= len(rest) {
				t.Fatalf("ParseFrame consumed nothing")
			}
			for _, dec := range decodersFor(frame.Verb) {
				if err := dec.Decode(frame.Body); err != nil {
					continue
				}
				body2 := dec.Append(nil)
				dec2 := reflect.New(reflect.TypeOf(dec).Elem()).Interface().(message)
				if err := dec2.Decode(body2); err != nil {
					t.Fatalf("%T: re-decode of re-encoding failed: %v", dec, err)
				}
				if !reflect.DeepEqual(dec, dec2) {
					t.Fatalf("%T: decode/encode not idempotent: %+v vs %+v", dec, dec, dec2)
				}
			}
			rest = next
		}
	})
}
