package attacker

import (
	"fmt"
	"os"
	"path/filepath"

	"auditreg"
	"auditreg/persist"
	"auditreg/store"
)

// Disk-image observer (E18, disk channel). Where E15's sweep greps a single
// data directory for known plaintext, this observer plays the stronger
// paired-run game from the paper's threat model: it holds the complete
// post-run disk images of two alternate executions — identical except for
// which reader read — and must tell them apart. Any read-correlated signal
// in the on-disk format counts: file names, counts, sizes, record layout,
// or bytes, whether or not it resembles a known needle.
//
// Each trial runs under a fresh store key. The record keystream is
// deterministic per (key, file, offset) by design — replay-stable recovery
// needs that — so two runs under one key differ exactly in their plaintext
// bits, and the game would measure determinism, not leakage. A real operator
// provisions a key per deployment, not per reader action; fresh keys per
// trial model comparing images of distinct deployments.
//
// The positive control is the naive implementation the paper argues against:
// alongside the encrypted WAL, the leaky configuration drops a cleartext
// sidecar log of who read — one byte of reader index. The byte-level
// features must catch it.

// diskImageBytes is how many leading bytes of the flattened image become
// per-byte features, on top of the shape features (file count and sizes).
const diskImageBytes = 512

// diskWrites is the number of values written per trial before the secret
// read.
const diskWrites = 3

// diskLab runs paired journaled executions, one subdirectory of base per
// trial, removed as the trial ends.
type diskLab struct {
	base string
	ctr  uint64
	seed uint64
}

func diskFeatures() []string {
	names := []string{"file-count", "total-bytes"}
	for i := 0; i < diskImageBytes; i++ {
		names = append(names, fmt.Sprintf("byte-%04d", i))
	}
	return names
}

// diskGames is the reader-identity game over disk images: the secret is
// whether reader 0 or reader 1 read the last written value. Its positive
// control adds the cleartext sidecar log.
func diskGames(_ *lab, cfg Config) ([]Distinguisher, error) {
	d := &diskLab{base: filepath.Join(cfg.Dir, "disk"), seed: cfg.Seed}
	var rows []Distinguisher
	for _, leaky := range []bool{false, true} {
		rows = append(rows, Distinguisher{
			Name:     gameName("disk/reader-identity", leaky),
			Control:  leaky,
			Features: diskFeatures(),
			Trial:    func(b int) ([]float64, error) { return d.trial(b, leaky) },
		})
	}
	return rows, nil
}

// trial runs one journaled execution end to end and returns the image
// features of the data directory it leaves behind.
func (l *diskLab) trial(b int, leaky bool) ([]float64, error) {
	l.ctr++
	dir := filepath.Join(l.base, fmt.Sprintf("trial-%08d", l.ctr))
	defer os.RemoveAll(dir)
	// Fresh key per trial (see the package comment above): the keystream is
	// deterministic per key, so a shared key would leak determinism, not
	// secrets.
	key := auditreg.KeyFromSeed(l.seed ^ (l.ctr * 0x9E3779B97F4A7C15))

	st, err := store.New[uint64](key, store.WithReaders[uint64](2))
	if err != nil {
		return nil, err
	}
	w, _, err := persist.Open(dir, persist.DeriveKey(key), st, persist.Options{
		Policy:  persist.SyncNever,
		Stripes: 1,
	})
	if err != nil {
		return nil, err
	}
	st.SetJournal(w)

	obj, err := st.Open("e18/disk/object", store.Register)
	if err != nil {
		return nil, err
	}
	for k := 1; k <= diskWrites; k++ {
		if err := obj.Write(0xD15C_0000_0000 + uint64(k)); err != nil {
			return nil, err
		}
	}
	if _, err := obj.Read(b); err != nil {
		return nil, err
	}
	if _, err := w.Snapshot(); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if leaky {
		// The naive sidecar a non-paper implementation would keep.
		line := []byte(fmt.Sprintf("read reader=%d\n", b))
		if err := os.WriteFile(filepath.Join(dir, "naive-audit.log"), line, 0o600); err != nil {
			return nil, err
		}
	}

	img, err := persist.CaptureImage(dir)
	if err != nil {
		return nil, err
	}
	return diskFeaturesOf(img), nil
}

// diskFeaturesOf flattens a captured image into the fixed feature vector:
// file count, total size, and the first diskImageBytes bytes of the files
// concatenated in sorted-name order (zero-padded when shorter).
func diskFeaturesOf(img []persist.ImageFile) []float64 {
	var total float64
	flat := make([]byte, 0, diskImageBytes)
	for _, f := range img {
		total += float64(len(f.Data))
		if len(flat) < diskImageBytes {
			flat = append(flat, f.Data...)
		}
	}
	if len(flat) > diskImageBytes {
		flat = flat[:diskImageBytes]
	}
	feats := []float64{float64(len(img)), total}
	for i := 0; i < diskImageBytes; i++ {
		if i < len(flat) {
			feats = append(feats, float64(flat[i]))
		} else {
			feats = append(feats, 0)
		}
	}
	return feats
}
