// Package attacker implements the paper's honest-but-curious attacker
// (Section 2, "Attacks") as executable experiments. An attacker adheres to
// the protocol but may stop an operation prematurely and perform arbitrary
// local computation on the responses it obtained from base objects. Here
// those responses are captured through the probe instrumentation, which sees
// exactly what the attacking process's own primitives returned — never the
// private state of other processes.
//
// Three attacks are implemented:
//
//   - crash-simulating read (Section 3.1): stop right after learning the
//     value; against the strawman this access is invisible to audits, against
//     Algorithm 1 the access is already logged by the very step that revealed
//     the value;
//   - reader-set inference (Lemma 7): a curious reader tries to decide
//     whether another reader read the current value from the tracking bits it
//     observed; plaintext bits make this certain, one-time-pad bits make it a
//     coin flip;
//   - max-register gap inference (Lemma 38): a curious reader of the max
//     register tries to deduce that an intermediate value was written from
//     sequence-number gaps; constant nonces make this certain, random nonces
//     destroy the signal.
package attacker

import (
	"fmt"
	mathrand "math/rand/v2"

	"auditreg/internal/baseline"
	"auditreg/internal/core"
	"auditreg/internal/otp"
	"auditreg/internal/probe"
	"auditreg/internal/shmem"
)

// abort is the sentinel panic used to stop an operation mid-flight, emulating
// a process that halts between two primitive steps.
type abort struct{}

// EffectiveRead performs reader j's read protocol against reg but stops
// immediately after the fetch&xor on R returns — the moment the read becomes
// effective (Claim 4). It returns the value the attacker learned. The handle
// is discarded afterwards, like a crashed process's local state.
func EffectiveRead[V comparable](reg *core.Register[V], j int) (V, error) {
	var (
		learned V
		got     bool
	)
	rd, err := reg.Reader(j, core.WithProbe(func(e probe.Event) {
		if e.Prim == probe.RXor && e.Kind == probe.Return {
			t, ok := e.Detail.(shmem.Triple[V])
			if !ok {
				panic(fmt.Sprintf("attacker: unexpected probe detail %T", e.Detail))
			}
			learned, got = t.Val, true
			panic(abort{}) // stop prematurely: no helping CAS, no local caching
		}
	}))
	if err != nil {
		return learned, err
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abort); !ok {
					panic(r)
				}
			}
		}()
		rd.Read()
	}()
	if !got {
		return learned, fmt.Errorf("attacker: read returned without touching R (silent); no value learned")
	}
	return learned, nil
}

// CrashSimulationResult reports experiment E3.
type CrashSimulationResult struct {
	// Value is the register value the attacker learned in both worlds.
	Value uint64
	// CoreAudited is whether Algorithm 1's audit reported the access.
	CoreAudited bool
	// StrawmanAudited is whether the strawman's audit reported the access.
	StrawmanAudited bool
}

// RunCrashSimulation performs the crash-simulating attack against both
// Algorithm 1 and the strawman, then audits both. The attacker is reader j=0
// out of m; the register holds `value`.
func RunCrashSimulation(m int, value uint64, seed uint64) (CrashSimulationResult, error) {
	var res CrashSimulationResult

	pads, err := otp.NewKeyedPads(otp.KeyFromSeed(seed), m)
	if err != nil {
		return res, err
	}
	reg, err := core.New(m, value, pads)
	if err != nil {
		return res, err
	}
	learned, err := EffectiveRead(reg, 0)
	if err != nil {
		return res, err
	}
	res.Value = learned
	rep, err := reg.Auditor().Audit()
	if err != nil {
		return res, err
	}
	res.CoreAudited = rep.Contains(0, learned)

	straw, err := baseline.NewStrawman(m, value)
	if err != nil {
		return res, err
	}
	peeked := straw.Peek() // learns the value, touches nothing
	srep, err := straw.Audit()
	if err != nil {
		return res, err
	}
	res.StrawmanAudited = srep.Contains(0, peeked)
	return res, nil
}

// InferenceResult reports the statistics of a guessing attack.
type InferenceResult struct {
	// Trials is the number of independent trials.
	Trials int
	// Correct is how many times the attacker guessed right.
	Correct int
	// Claims is how many times the attacker asserted the secret event
	// happened.
	Claims int
	// FalseClaims is how many of those assertions were wrong. A sound
	// inference (the paper's leak) has FalseClaims == 0; the one-time
	// pad / nonce machinery makes the inference unsound.
	FalseClaims int
}

// Rate returns the attacker's guessing accuracy.
func (r InferenceResult) Rate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Trials)
}

// FalseClaimRate returns the fraction of the attacker's positive assertions
// that were wrong.
func (r InferenceResult) FalseClaimRate() float64 {
	if r.Claims == 0 {
		return 0
	}
	return float64(r.FalseClaims) / float64(r.Claims)
}

// RunReaderSetInference measures experiment E4: in each trial, reader 1 reads
// the current value with probability 1/2; then the curious reader 0 performs
// its own read and — from the tracking bits its fetch&xor returned — guesses
// whether reader 1 read. Against the strawman the bits are plaintext and the
// attacker is always right; against Algorithm 1 the bits are one-time-pad
// encrypted and the best strategy is a coin flip.
func RunReaderSetInference(trials int, seed uint64) (coreRes, strawRes InferenceResult, err error) {
	rng := mathrand.New(mathrand.NewPCG(seed, 0xabcdef))
	const m = 2

	for trial := 0; trial < trials; trial++ {
		victimReads := rng.IntN(2) == 1

		// --- Algorithm 1 world ---
		pads, perr := otp.NewKeyedPads(otp.KeyFromSeed(seed+uint64(trial)), m)
		if perr != nil {
			return coreRes, strawRes, perr
		}
		reg, rerr := core.New(m, uint64(41), pads)
		if rerr != nil {
			return coreRes, strawRes, rerr
		}
		if victimReads {
			victim, verr := reg.Reader(1)
			if verr != nil {
				return coreRes, strawRes, verr
			}
			victim.Read()
		}
		var observed uint64
		attacker, aerr := reg.Reader(0, core.WithProbe(func(e probe.Event) {
			if e.Prim == probe.RXor && e.Kind == probe.Return {
				observed = e.Detail.(shmem.Triple[uint64]).Bits
			}
		}))
		if aerr != nil {
			return coreRes, strawRes, aerr
		}
		attacker.Read()
		// Best-effort guess without the pad: read the victim's tracking
		// bit as if the pad were zero.
		guess := observed&(1<<1) != 0
		coreRes.Trials++
		if guess {
			coreRes.Claims++
			if !victimReads {
				coreRes.FalseClaims++
			}
		}
		if guess == victimReads {
			coreRes.Correct++
		}

		// --- Strawman world ---
		straw, serr := baseline.NewStrawman(m, uint64(41))
		if serr != nil {
			return coreRes, strawRes, serr
		}
		if victimReads {
			straw.Read(1)
		}
		_, plaintext := straw.Read(0)
		sguess := plaintext&(1<<1) != 0
		strawRes.Trials++
		if sguess {
			strawRes.Claims++
			if !victimReads {
				strawRes.FalseClaims++
			}
		}
		if sguess == victimReads {
			strawRes.Correct++
		}
	}
	return coreRes, strawRes, nil
}

// RunMaxGapInference measures experiment E5 against the auditable max
// register. In each trial the writer first writes v, the attacker reads
// (observing sequence number s), then the writer either
//
//	case A: writes v+1 then v+2 (the intermediate value exists), or
//	case B: writes v+2 twice     (no intermediate value),
//
// and the attacker reads again, observing v+2 and sequence number s'. The
// attacker claims "v+1 was written" iff s'-s >= 2.
//
// With constant nonces (the ablation) the duplicate in case B never raises
// the register, so the gap separates the cases perfectly: accuracy 1.0 and no
// false claims — the inference is sound, which is precisely the leak. With
// random nonces the duplicate consumes a sequence number whenever its nonce
// is larger, so case B shows the same gap half the time: the attacker's
// claims acquire false positives, realizing Lemma 38's indistinguishable
// execution in which no writeMax(v+1) occurs.
func RunMaxGapInference(trials int, seed uint64, nonced bool) (InferenceResult, error) {
	var res InferenceResult
	rng := mathrand.New(mathrand.NewPCG(seed, 0x5eed))
	const m = 1

	for trial := 0; trial < trials; trial++ {
		intermediateWritten := rng.IntN(2) == 1

		pads, err := otp.NewKeyedPads(otp.KeyFromSeed(seed+uint64(trial)), m)
		if err != nil {
			return res, err
		}
		reg, err := core.NewMaxRegister(m, uint64(0), func(a, b uint64) bool { return a < b }, pads)
		if err != nil {
			return res, err
		}
		var nonces otp.NonceSource = otp.FixedNonce(0)
		if nonced {
			nonces = otp.NewSeededNonces(seed+uint64(trial), 1)
		}
		w, err := reg.Writer(nonces)
		if err != nil {
			return res, err
		}

		v := uint64(10)
		if err := w.WriteMax(v); err != nil {
			return res, err
		}

		var seqs []uint64
		attacker, err := reg.Reader(0, core.WithProbe(func(e probe.Event) {
			if e.Prim == probe.RXor && e.Kind == probe.Return {
				seqs = append(seqs, e.Detail.(shmem.Triple[uint64]).Seq)
			}
		}))
		if err != nil {
			return res, err
		}
		attacker.Read() // observes v and its sequence number

		if intermediateWritten {
			if err := w.WriteMax(v + 1); err != nil {
				return res, err
			}
			if err := w.WriteMax(v + 2); err != nil {
				return res, err
			}
		} else {
			if err := w.WriteMax(v + 2); err != nil {
				return res, err
			}
			if err := w.WriteMax(v + 2); err != nil { // duplicate value, fresh nonce
				return res, err
			}
		}
		attacker.Read() // observes v+2 and its sequence number

		if len(seqs) != 2 {
			return res, fmt.Errorf("attacker expected 2 direct reads, saw %d", len(seqs))
		}
		guess := seqs[1]-seqs[0] >= 2
		res.Trials++
		if guess {
			res.Claims++
			if !intermediateWritten {
				res.FalseClaims++
			}
		}
		if guess == intermediateWritten {
			res.Correct++
		}
	}
	return res, nil
}
