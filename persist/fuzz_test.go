package persist

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"auditreg"
	"auditreg/store"
)

// fuzzKey and fuzzNonce fix the decryption context so corpus entries stay
// meaningful across runs.
func fuzzKey() auditreg.Key { return DeriveKey(auditreg.KeyFromSeed(1)) }

var fuzzNonce = [fileNonceLen]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// fuzzSeeds returns one valid frame per record type, plus a two-frame
// stream.
func fuzzSeeds() [][]byte {
	key := fuzzKey()
	recs := []Record{
		{Op: OpOpen, Name: "acct/1", Kind: uint8(store.Register), Capacity: 4096},
		{Op: OpWrite, Name: "acct/1", Kind: uint8(store.Register), Seq: 7, Value: 0xA1B2C3D4},
		{Op: OpFetch, Name: "acct/1", Kind: uint8(store.Register), Reader: 3, Seq: 7, Value: 0xA1B2C3D4},
		{Op: OpAnnounce, Name: "acct/1", Kind: uint8(store.Register), Reader: 3, Seq: 7},
		{Op: OpAudit, Name: "acct/1", Kind: uint8(store.Register), Pairs: 12},
		{Op: OpSeal},
	}
	ps := newPadStream(key, &fuzzNonce)
	var out [][]byte
	for i := range recs {
		out = append(out, appendFrame(nil, &ps, 0, uint64(i+1), &recs[i]))
	}
	stream := appendFrame(nil, &ps, 0, 10, &recs[1])
	stream = appendFrame(stream, &ps, int64(len(stream)), 11, &recs[2])
	out = append(out, stream)
	return out
}

// FuzzWALRecord fuzzes the frame parser — the code recovery trusts with
// arbitrary disk bytes. Beyond not panicking, it checks that every frame the
// parser accepts round-trips: re-encoding the decoded record at the same LSN
// reproduces the consumed bytes exactly, so the decoder accepts nothing the
// encoder cannot produce.
func FuzzWALRecord(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	ps := newPadStream(fuzzKey(), &fuzzNonce)
	f.Fuzz(func(t *testing.T, b []byte) {
		d := frameDecoder{ps: ps, intern: freshName}
		rec, lsn, rest, err := d.parseFrame(b, 0)
		if err != nil {
			if errors.Is(err, errTornFrame) && len(b) >= maxFrame {
				t.Fatalf("%d bytes reported as torn frame", len(b))
			}
			return
		}
		consumed := b[:len(b)-len(rest)]
		re := appendFrame(nil, &ps, 0, lsn, &rec)
		if !bytes.Equal(re, consumed) {
			t.Fatalf("accepted frame does not round-trip:\n in  %x\n out %x", consumed, re)
		}
	})
}

// tailSeed is one FuzzSegmentTail input: the bytes behind a valid prefix and
// the count of zeros behind those.
type tailSeed struct {
	tail []byte
	pad  uint16
}

// tailSeeds returns one input per shape the tail rule names: nothing, zeros,
// another whole frame, that frame cut at a sector boundary, cut mid-sector,
// cut by the end of the file, damaged, a seal, and plain garbage.
func tailSeeds(fx tailFixture) []tailSeed {
	frame := fx.img[fx.last:]
	damaged := bytes.Clone(frame)
	damaged[frameOverhead] ^= 0xFF
	return []tailSeed{
		{nil, 0},
		{nil, 4096},
		{frame, 0},
		{frame, 4096},
		{frame[:fx.cut-fx.last], 4096},
		{frame[:fx.cut-fx.last+100], 4096},
		{frame[:len(frame)-9], 0},
		{damaged, 4096},
		{appendFrame(nil, &fx.ps, fx.last, 3, &Record{Op: OpSeal}), 0},
		{[]byte{0, 0, 1, 0, 0xde, 0xad}, 512},
	}
}

// FuzzSegmentTail fuzzes the tail classifier — the part of scanRecords
// that decides whether what follows the last good frame is the end of the
// log, a torn write to discard, or corruption to halt on. The input is laid
// behind a valid two-frame prefix, zero padding behind it. Whatever it is,
// the parse must either fail or return the prefix's records, whole and in
// order, followed only by records that are really in the file: each
// re-encodes to exactly the bytes at its place.
func FuzzSegmentTail(f *testing.F) {
	fx := newTailFixture(f, fuzzKey())
	prefix, want := fx.img[:fx.last], fx.recs[:len(fx.recs)-1]
	for _, seed := range tailSeeds(fx) {
		f.Add(seed.tail, seed.pad)
	}
	path := filepath.Join(f.TempDir(), segmentName(0, 1))
	f.Fuzz(func(t *testing.T, tail []byte, pad uint16) {
		img := bytes.Join([][]byte{prefix, tail, make([]byte, pad)}, nil)
		if err := os.WriteFile(path, img, 0o600); err != nil {
			t.Fatal(err)
		}
		fr, err := readRecordFile(path, segMagic, fuzzKey())
		if err != nil {
			return
		}
		if len(fr.recs) < len(want) {
			t.Fatalf("%d records recovered, the prefix holds %d", len(fr.recs), len(want))
		}
		off := int64(headerLen)
		for i := range fr.recs {
			if i < len(want) && fr.recs[i] != want[i] {
				t.Fatalf("record %d = %+v, want %+v", i, fr.recs[i], want[i])
			}
			frame := appendFrame(nil, &fx.ps, off, fr.lsns[i], &fr.recs[i])
			if !bytes.HasPrefix(img[off:], frame) {
				t.Fatalf("record %d = %+v is not what the file holds at offset %d", i, fr.recs[i], off)
			}
			off += int64(len(frame))
		}
		if off > fr.validLen || !fr.sealed && off != fr.validLen {
			t.Fatalf("records end at offset %d, validLen %d (sealed %v)", off, fr.validLen, fr.sealed)
		}
	})
}

// seedCorpus renders fuzzSeeds and tailSeeds as the checked-in corpus files:
// target -> file name -> content.
func seedCorpus(t *testing.T) map[string]map[string]string {
	corpus := map[string]map[string]string{"FuzzWALRecord": {}, "FuzzSegmentTail": {}}
	add := func(target, seed string) {
		files := corpus[target]
		files[fmt.Sprintf("seed-%02d", len(files))] = "go test fuzz v1\n" + seed
	}
	for _, seed := range fuzzSeeds() {
		add("FuzzWALRecord", fmt.Sprintf("[]byte(%q)\n", seed))
	}
	for _, seed := range tailSeeds(newTailFixture(t, fuzzKey())) {
		add("FuzzSegmentTail", fmt.Sprintf("[]byte(%q)\nuint16(%d)\n", seed.tail, seed.pad))
	}
	return corpus
}

// TestWriteSeedCorpus regenerates the checked-in seed corpora under
// testdata/fuzz from fuzzSeeds and tailSeeds. It is a maintenance switch,
// not a test: set PERSIST_WRITE_CORPUS=1 after changing the frame format.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("PERSIST_WRITE_CORPUS") == "" {
		t.Skip("set PERSIST_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	for target, files := range seedCorpus(t) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSeedCorpusIsCurrent fails when the checked-in corpus is not what
// fuzzSeeds and tailSeeds generate: after a format change, stale seeds would
// stop reaching the accepting path and nothing else would say so.
// Regenerate with PERSIST_WRITE_CORPUS=1 go test -run TestWriteSeedCorpus.
func TestSeedCorpusIsCurrent(t *testing.T) {
	for target, files := range seedCorpus(t) {
		dir := filepath.Join("testdata", "fuzz", target)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(files) {
			t.Errorf("%s holds %d files, the seeds are %d", dir, len(entries), len(files))
		}
		for name, want := range files {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil || string(got) != want {
				t.Errorf("%s/%s is stale (%v): regenerate the corpus", dir, name, err)
			}
		}
	}
}

// TestFuzzSeedsParse pins that every checked-in seed is a valid frame (the
// fuzzer's corpus must start from the accepting path).
func TestFuzzSeedsParse(t *testing.T) {
	d := frameDecoder{ps: newPadStream(fuzzKey(), &fuzzNonce), intern: freshName}
	for i, seed := range fuzzSeeds() {
		rest := seed
		for len(rest) > 0 {
			off := int64(len(seed) - len(rest))
			var err error
			_, _, rest, err = d.parseFrame(rest, off)
			if err != nil {
				t.Fatalf("seed %d does not parse: %v", i, err)
			}
		}
	}
}

// TestPadStreamIsAESCTR checks the keystream cursor against the standard
// library's counter mode under the file key (zero IV) over a 4 KiB image:
// at 16- and 32-byte boundaries, at random (offset, length) pairs that jump
// back as often as forward, in place and not, and through a cursor copied
// after use.
func TestPadStreamIsAESCTR(t *testing.T) {
	key := fuzzKey()
	h := sha256.New()
	h.Write([]byte(padTag))
	h.Write(key[:])
	h.Write(fuzzNonce[:])
	c, err := aes.NewCipher(h.Sum(nil))
	if err != nil {
		t.Fatal(err)
	}
	ks := make([]byte, 4096)
	cipher.NewCTR(c, make([]byte, aes.BlockSize)).XORKeyStream(ks, ks)

	rng := rand.New(rand.NewSource(1))
	src := make([]byte, len(ks))
	rng.Read(src)
	check := func(ps *padStream, off, n int, inPlace bool) {
		t.Helper()
		dst := make([]byte, n)
		if inPlace {
			copy(dst, src[off:])
			ps.xor(dst, dst, int64(off))
		} else {
			ps.xor(dst, src[off:off+n], int64(off))
		}
		for i := range dst {
			if dst[i] != src[off+i]^ks[off+i] {
				t.Fatalf("xor at offset %d, length %d (in place %v): byte %d differs from AES-CTR", off, n, inPlace, off+i)
			}
		}
	}
	ps := newPadStream(key, &fuzzNonce)
	for _, off := range []int{0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 4032} {
		for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 64} {
			check(&ps, off, n, n%2 == 0)
		}
	}
	for i := 0; i < 2000; i++ {
		off := rng.Intn(len(ks))
		check(&ps, off, rng.Intn(min(len(ks)-off, 100)+1), i%2 == 0)
	}
	cp := ps
	for i := 0; i < 200; i++ {
		off := rng.Intn(len(ks) - 64)
		check(&cp, off, 64, false)
		check(&ps, len(ks)-1-off-63, 64, true)
	}
}

// TestFrameBytesAreTheFormats pins the on-disk bytes themselves. Encode and
// decode share one keystream cursor, so a round trip — and every fuzz seed
// — would pass a cursor that walked the stream wrong the same way on both
// sides; a constant cannot be fooled like that. Under a fixed key and nonce
// it encodes a segment image whose frames start mid-block, straddle a
// 32-byte pad block boundary, outgrow a block, and end in a seal, and
// compares its SHA-256 with the one the file format has always produced.
// Change the constant only together with fileVersion.
func TestFrameBytesAreTheFormats(t *testing.T) {
	const want = "356930c4d2537296e11565944cc3958b549d123a16453e497f90f7ca3db7455e"
	recs := []Record{
		{Op: OpOpen, Name: "a", Kind: uint8(store.Register), Capacity: 64},
		{Op: OpWrite, Name: "acct/7", Kind: uint8(store.Register), Seq: 3, Value: 0xA1B2C3D4E5F60718},
		{Op: OpFetch, Name: strings.Repeat("n", 40), Kind: uint8(store.MaxRegister), Reader: 5, Seq: 9, Value: 0x0102030405060708},
		{Op: OpSeal},
	}
	img, _, err := newHeader(segMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	copy(img[headerLen-fileNonceLen:], fuzzNonce[:])
	ps := newPadStream(fuzzKey(), &fuzzNonce)
	type span struct{ from, to int } // a frame's ciphertext
	var spans []span
	for i := range recs {
		start := len(img)
		img = appendFrame(img, &ps, int64(start), uint64(i+1), &recs[i])
		spans = append(spans, span{start + frameOverhead, len(img)})
	}
	block := func(off int) int { return off / padBlockLen }
	if s := spans[0]; s.from%padBlockLen == 0 || block(s.from) != block(s.to-1) {
		t.Fatalf("frame 0's ciphertext %v does not start mid-block inside one block", s)
	}
	if s := spans[1]; block(s.from) == block(s.to-1) {
		t.Fatalf("frame 1's ciphertext %v does not straddle a block boundary", s)
	}
	if s := spans[2]; s.to-s.from <= padBlockLen {
		t.Fatalf("frame 2's ciphertext %v is no longer than a block", s)
	}
	if sum := sha256.Sum256(img); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("segment image hashes to %x, the format's is %s", sum, want)
	}

	var got []Record
	sc, err := scanRecords("golden", img, segMagic, fuzzKey(), freshName, func(rec Record, lsn uint64) error {
		if lsn != uint64(len(got)+1) {
			t.Errorf("record %d at lsn %d", len(got), lsn)
		}
		got = append(got, rec)
		return nil
	})
	if err != nil || !sc.sealed || sc.validLen != int64(len(img)) {
		t.Fatalf("scan: %+v, %v", sc, err)
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d decoded as %+v, want %+v", i, got[i], recs[i])
		}
	}
	if len(got) != len(recs)-1 {
		t.Fatalf("decoded %d records, want %d before the seal", len(got), len(recs)-1)
	}
}
