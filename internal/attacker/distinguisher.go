package attacker

import (
	"fmt"
	"math"
	mathrand "math/rand/v2"

	"auditreg/internal/shard"
)

// This file is the statistical half of the adversarial audit lab (E18): a
// generic distinguisher harness in the hypothesis-testing style of the
// privacy-audit literature ("Privacy Audit as Bits Transmission" — the
// observer tries to receive one secret bit per trial). A game hides a secret
// bit b in each trial; the observer extracts a feature vector from whatever
// channel it taps (wire frames, a disk image, STATS counters, latencies) and
// must guess b. The harness runs balanced trials, learns the observer's best
// guessing rule on a calibration half, scores it on a held-out test half, and
// converts test accuracy into a leak verdict with a Wilson confidence bound:
// the channel leaks only if the accuracy's lower confidence bound clears
// chance by more than delta. The calibration/test split keeps the verdict
// honest — a rule selected on the same trials it is scored on would look
// better than chance on pure noise.
//
// Every concrete observer also ships a positive control: the same game
// against a deliberately leaky configuration (unmasked audit rows, a naive
// cleartext log, a shared-state-touching reader) that the harness MUST flag.
// A lab that never fires proves nothing; the controls prove its statistical
// power at the configured trial count.

// Trial plays one round of a distinguisher game under secret bit b (0 or 1)
// and returns the observer's feature vector. The vector must have the same
// length on every call; trials run sequentially.
type Trial func(b int) ([]float64, error)

// Distinguisher is one observer playing one game.
type Distinguisher struct {
	// Name identifies the game in reports, conventionally "channel/game".
	Name string
	// Control marks a positive control: a deliberately leaky configuration
	// the harness is required to detect (Verdict.Leak must come back true,
	// or the lab has no power at this trial count).
	Control bool
	// Features names the feature vector's entries, index-aligned with what
	// Trial returns; used to report which feature carried the leak.
	Features []string
	// Trial plays one round.
	Trial Trial
}

// Verdict is the outcome of running one distinguisher.
type Verdict struct {
	Name    string
	Control bool
	// Trials is the total rounds played; TestTrials the held-out half the
	// accuracy is scored on.
	Trials     int
	TestTrials int
	Correct    int
	// Accuracy is Correct/TestTrials; chance is 0.5 by construction (trials
	// are balanced between the two branches).
	Accuracy float64
	// WilsonLow and WilsonHigh bound the true accuracy at 95% confidence.
	WilsonLow  float64
	WilsonHigh float64
	// Delta is the leak threshold the verdict was computed against.
	Delta float64
	// Leak reports whether the observer beats chance by more than Delta
	// with confidence: WilsonLow > 0.5 + Delta.
	Leak bool
	// TopFeature is the feature the calibration half selected as most
	// separating, and Separation its |mean0-mean1|/pooled-stddev score —
	// when a leak fires, this is where the signal lives.
	TopFeature string
	Separation float64
}

// Passed reports whether the verdict is the required one: no leak for an
// honest configuration, a detected leak for a positive control.
func (v Verdict) Passed() bool {
	if v.Control {
		return v.Leak
	}
	return !v.Leak
}

// TableHeader is the column header over Row lines whose names are padded
// to width.
func TableHeader(width int) string {
	return fmt.Sprintf("%-*s %-8s %-9s %-18s %-30s %s", width, "game", "role", "accuracy", "wilson95", "verdict", "result")
}

// Row renders the verdict as one line of the E18 table, its name padded to
// width: role, accuracy, Wilson interval, verdict, and ok — or FAIL when
// the verdict is not the required one.
func (v Verdict) Row(width int) string {
	role := "honest"
	if v.Control {
		role = "control"
	}
	verdict := "no leak"
	if v.Leak {
		verdict = "LEAK via " + v.TopFeature
	}
	result := "ok"
	if !v.Passed() {
		result = "FAIL"
	}
	return fmt.Sprintf("%-*s %-8s %-9.3f [%.3f, %.3f]     %-30s %s",
		width, v.Name, role, v.Accuracy, v.WilsonLow, v.WilsonHigh, verdict, result)
}

// minTrials is the floor RunDistinguisher pads requests up to: below it the
// Wilson bound is too wide for either verdict to mean anything.
const minTrials = 40

// RunDistinguisher plays the game for the requested number of trials
// (rounded to a multiple of 4, floored at minTrials, so both halves are
// exactly balanced) and returns the verdict at the given delta threshold.
//
// The guessing rule is a calibrated threshold test: on the calibration half
// it scores every feature by |mean0-mean1|/pooled-stddev, picks the most
// separating one, and guesses by nearest branch mean; the rule is then scored
// on the untouched test half. This detects any feature whose distribution
// shifts with the secret — a tracking bit, a counter, a file byte, a latency
// — while staying at chance on channels that carry none.
func RunDistinguisher(d Distinguisher, trials int, delta float64, seed uint64) (Verdict, error) {
	if trials < minTrials {
		trials = minTrials
	}
	trials -= trials % 4
	rng := mathrand.New(mathrand.NewPCG(seed, shard.Hash(d.Name)))

	half := trials / 2
	bits := append(balancedBits(half, rng), balancedBits(half, rng)...)

	var feats [][]float64
	for i, b := range bits {
		f, err := d.Trial(b)
		if err != nil {
			return Verdict{}, fmt.Errorf("attacker: %s trial %d: %w", d.Name, i, err)
		}
		if len(feats) > 0 && len(f) != len(feats[0]) {
			return Verdict{}, fmt.Errorf("attacker: %s trial %d: %d features, want %d", d.Name, i, len(f), len(feats[0]))
		}
		feats = append(feats, f)
	}
	nf := len(feats[0])
	if nf == 0 {
		return Verdict{}, fmt.Errorf("attacker: %s produced no features", d.Name)
	}

	// Calibration: per-branch means and pooled stddev of every feature on
	// the first half; the most separating feature becomes the guessing rule.
	best, bestScore := 0, -1.0
	var bestM0, bestM1 float64
	for k := 0; k < nf; k++ {
		m0, m1, sd := branchStats(feats[:half], bits[:half], k)
		score := math.Abs(m0-m1) / (sd + 1e-9)
		if score > bestScore {
			best, bestScore = k, score
			bestM0, bestM1 = m0, m1
		}
	}

	// Test: nearest-branch-mean on the held-out half.
	correct := 0
	for i := half; i < trials; i++ {
		x := feats[i][best]
		guess := 0
		if math.Abs(x-bestM1) < math.Abs(x-bestM0) {
			guess = 1
		}
		if guess == bits[i] {
			correct++
		}
	}

	acc := float64(correct) / float64(half)
	lo, hi := wilson(correct, half, 1.96)
	v := Verdict{
		Name:       d.Name,
		Control:    d.Control,
		Trials:     trials,
		TestTrials: half,
		Correct:    correct,
		Accuracy:   acc,
		WilsonLow:  lo,
		WilsonHigh: hi,
		Delta:      delta,
		Leak:       lo > 0.5+delta,
		Separation: bestScore,
	}
	if best < len(d.Features) {
		v.TopFeature = d.Features[best]
	} else {
		v.TopFeature = fmt.Sprintf("feature-%d", best)
	}
	return v, nil
}

// balancedBits returns n secret bits, exactly half of each value, shuffled.
func balancedBits(n int, rng *mathrand.Rand) []int {
	bits := make([]int, n)
	for i := n / 2; i < n; i++ {
		bits[i] = 1
	}
	rng.Shuffle(n, func(i, j int) { bits[i], bits[j] = bits[j], bits[i] })
	return bits
}

// branchStats returns the per-branch means and the pooled stddev of feature
// k over the given trials.
func branchStats(feats [][]float64, bits []int, k int) (m0, m1, sd float64) {
	var n0, n1 int
	for i, f := range feats {
		if bits[i] == 0 {
			m0 += f[k]
			n0++
		} else {
			m1 += f[k]
			n1++
		}
	}
	m0 /= float64(n0)
	m1 /= float64(n1)
	var ss float64
	for i, f := range feats {
		d := f[k] - m0
		if bits[i] == 1 {
			d = f[k] - m1
		}
		ss += d * d
	}
	return m0, m1, math.Sqrt(ss / float64(len(feats)))
}

// wilson returns the Wilson score interval for correct successes out of n at
// critical value z.
func wilson(correct, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(correct) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := p + z*z/(2*nf)
	margin := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	return math.Max(0, (center-margin)/denom), math.Min(1, (center+margin)/denom)
}
