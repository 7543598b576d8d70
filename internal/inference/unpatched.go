package inference

import (
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/useragent"
)

// Insight 1.1, case 2: a 2014 Windows 7 update installed new emojis;
// observing the corresponding canvas change reveals the patch was
// applied — and, more importantly, instances still rendering the *old*
// emoji have not applied a years-old security rollup. The paper works
// from the two known canvas hash values (Appendix A.2); this analysis
// reconstructs the hash reference set from observed update dynamics and
// then counts unpatched instances.

// PatchReport is the unpatched-instance analysis result.
type PatchReport struct {
	// UpdateObserved counts dynamics in which the patch's canvas
	// transition was observed (the paper: 9).
	UpdateObserved int
	// OldHashes is the reconstructed reference set of pre-patch canvas
	// hashes.
	OldHashes map[string]bool
	// UnpatchedInstances counts instances whose latest fingerprint
	// still renders a pre-patch canvas (the paper: 6,968).
	UnpatchedInstances int
}

// PatchAccumulator reconstructs the pre-patch canvas reference set
// from observed Windows 7 emoji-update dynamics and counts instances
// still presenting it. Dynamics and instances may arrive in any order:
// the latest canvas hashes are tallied until the reference set is
// complete.
type PatchAccumulator struct {
	rep    PatchReport
	latest map[string]int // Windows 7 instances by latest canvas hash
}

// NewPatchAccumulator returns an empty accumulator.
func NewPatchAccumulator() *PatchAccumulator {
	return &PatchAccumulator{rep: PatchReport{OldHashes: map[string]bool{}}, latest: map[string]int{}}
}

// AddDynamics feeds one dynamics with its classification.
func (a *PatchAccumulator) AddDynamics(d *dynamics.Dynamics, c dynamics.Classification) {
	fd := d.Delta.Field(fingerprint.FeatCanvas)
	if fd == nil || !isWindows7(d.To) || !c.Has(dynamics.CauseCanvasEmoji) {
		return
	}
	a.rep.UpdateObserved++
	a.rep.OldHashes[fd.OldHash] = true
}

// AddLatest feeds one instance's most recent record.
func (a *PatchAccumulator) AddLatest(last *fingerprint.Record) {
	if isWindows7(last) {
		a.latest[last.FP.CanvasHash]++
	}
}

// Report returns the analysis over everything fed.
func (a *PatchAccumulator) Report() PatchReport {
	rep := a.rep
	for h := range rep.OldHashes {
		rep.UnpatchedInstances += a.latest[h]
	}
	return rep
}

func isWindows7(r *fingerprint.Record) bool {
	if r.OS != useragent.Windows {
		return false
	}
	ua, err := useragent.CachedParse(r.FP.UserAgent)
	return err == nil && ua.OS == useragent.Windows && ua.OSVersion.Major == 7
}
