package wire_test

import (
	"io"
	"reflect"
	"testing"

	"auditreg/wire"
)

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
	// message under its own verb, a concatenation, and truncations. A frame's
	// direction is not self-describing, so each verb is decoded as every body
	// the sample table lists under it.
	var all []byte
	bodies := make(map[wire.Verb][]reflect.Type)
	for i, s := range sampleMessages() {
		frame := wire.AppendFrame(nil, uint64(i), s.verb, s.msg.Append(nil))
		f.Add(frame)
		all = append(all, frame...)
		bodies[s.verb] = append(bodies[s.verb], reflect.TypeOf(s.msg).Elem())
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
			for _, typ := range bodies[frame.Verb] {
				dec := reflect.New(typ).Interface().(message)
				if err := dec.Decode(frame.Body); err != nil {
					continue
				}
				body2 := dec.Append(nil)
				dec2 := zeroOf(dec)
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
