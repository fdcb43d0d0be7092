package otp_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"auditreg/internal/otp"
)

func TestKeyedPadsDeterministic(t *testing.T) {
	t.Parallel()
	key := otp.KeyFromSeed(7)
	p1, err := otp.NewKeyedPads(key, 16)
	if err != nil {
		t.Fatalf("NewKeyedPads: %v", err)
	}
	p2, err := otp.NewKeyedPads(key, 16)
	if err != nil {
		t.Fatalf("NewKeyedPads: %v", err)
	}
	for s := uint64(0); s < 100; s++ {
		if p1.Mask(s) != p2.Mask(s) {
			t.Fatalf("pad sequence not deterministic at s=%d", s)
		}
	}
}

func TestKeyedPadsRespectWidth(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, mRaw uint8, s uint64) bool {
		m := int(mRaw)%otp.MaxReaders + 1
		p, err := otp.NewKeyedPads(otp.KeyFromSeed(seed), m)
		if err != nil {
			return false
		}
		return p.Mask(s)&^otp.MaskBits(m) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedPadsDifferAcrossKeysAndSeqs(t *testing.T) {
	t.Parallel()
	pA, _ := otp.NewKeyedPads(otp.KeyFromSeed(1), 64)
	pB, _ := otp.NewKeyedPads(otp.KeyFromSeed(2), 64)
	// Distinct keys and distinct sequence numbers should essentially never
	// collide on 64-bit masks; check a window.
	seen := make(map[uint64]string, 200)
	for s := uint64(0); s < 100; s++ {
		for name, p := range map[string]*otp.KeyedPads{"A": pA, "B": pB} {
			m := p.Mask(s)
			if prev, dup := seen[m]; dup {
				t.Fatalf("mask collision between %s@%d and %s", name, s, prev)
			}
			seen[m] = name
		}
	}
}

func TestKeyedPadsValidation(t *testing.T) {
	t.Parallel()
	if _, err := otp.NewKeyedPads(otp.Key{}, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := otp.NewKeyedPads(otp.Key{}, 65); err == nil {
		t.Error("m=65 accepted")
	}
}

func TestFixedPadsCycle(t *testing.T) {
	t.Parallel()
	p, err := otp.NewFixedPads(1, 2, 3)
	if err != nil {
		t.Fatalf("NewFixedPads: %v", err)
	}
	want := []uint64{1, 2, 3, 1, 2, 3, 1}
	for s, w := range want {
		if got := p.Mask(uint64(s)); got != w {
			t.Fatalf("Mask(%d) = %d, want %d", s, got, w)
		}
	}
	if _, err := otp.NewFixedPads(); err == nil {
		t.Error("empty fixed pads accepted")
	}
}

func TestZeroPads(t *testing.T) {
	t.Parallel()
	var p otp.ZeroPads
	for s := uint64(0); s < 10; s++ {
		if p.Mask(s) != 0 {
			t.Fatalf("ZeroPads.Mask(%d) != 0", s)
		}
	}
}

func TestMaskBits(t *testing.T) {
	t.Parallel()
	cases := []struct {
		m    int
		want uint64
	}{
		{-1, 0},
		{0, 0},
		{1, 1},
		{8, 0xff},
		{63, 1<<63 - 1},
		{64, ^uint64(0)},
		{100, ^uint64(0)},
	}
	for _, c := range cases {
		if got := otp.MaskBits(c.m); got != c.want {
			t.Errorf("MaskBits(%d) = %#x, want %#x", c.m, got, c.want)
		}
	}
}

func TestSeededNoncesUniqueAndOwnerTagged(t *testing.T) {
	t.Parallel()
	src := otp.NewSeededNonces(99, 7)
	seen := make(map[uint64]struct{}, 1000)
	for i := 0; i < 1000; i++ {
		n := src.Next()
		if n&0xff != 7 {
			t.Fatalf("nonce %#x lost its owner tag", n)
		}
		if _, dup := seen[n]; dup {
			t.Fatalf("duplicate nonce %#x", n)
		}
		seen[n] = struct{}{}
	}
}

func TestSeededNoncesDisjointAcrossOwners(t *testing.T) {
	t.Parallel()
	a := otp.NewSeededNonces(1, 1)
	b := otp.NewSeededNonces(1, 2)
	// Same seed, different owners: low byte alone separates them.
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			t.Fatal("owners collided")
		}
	}
}

// TestSeededNoncesStream pins the stream to the PCG drawn through a Rand,
// as sources were first built: seeded runs keep their nonces.
func TestSeededNoncesStream(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		seed  uint64
		owner uint8
	}{{0, 0}, {1, 1}, {99, 7}, {1 << 40, 255}} {
		src := otp.NewSeededNonces(c.seed, c.owner)
		ref := rand.New(rand.NewPCG(c.seed, uint64(c.owner)+0x9e3779b97f4a7c15))
		for i := range 1000 {
			if got, want := src.Next(), ref.Uint64()<<8|uint64(c.owner); got != want {
				t.Fatalf("seed %d owner %d: nonce %d is %#x, want %#x", c.seed, c.owner, i, got, want)
			}
		}
	}
}

func TestCryptoNonces(t *testing.T) {
	t.Parallel()
	src := otp.NewCryptoNonces(3)
	a, b := src.Next(), src.Next()
	if a&0xff != 3 || b&0xff != 3 {
		t.Fatal("owner tag missing")
	}
	if a == b {
		t.Fatal("crypto nonces collided immediately")
	}
}

func TestNewKey(t *testing.T) {
	t.Parallel()
	k1, err := otp.NewKey()
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	k2, err := otp.NewKey()
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	if k1 == k2 {
		t.Fatal("two fresh keys are identical")
	}
}
