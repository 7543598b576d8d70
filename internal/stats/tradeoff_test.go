package stats

import (
	"math"
	"testing"

	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
)

func TestFeatureEntropyBasics(t *testing.T) {
	mk := func(fonts []string, cores int) *fingerprint.Record {
		return &fingerprint.Record{FP: &fingerprint.Fingerprint{Fonts: fonts, CPUCores: cores}}
	}
	recs := []*fingerprint.Record{
		mk([]string{"A"}, 4), mk([]string{"B"}, 4), mk([]string{"C"}, 4), mk([]string{"D"}, 4),
	}
	acc := NewTradeoffAccumulator()
	for _, r := range recs {
		acc.AddFirst(r.FP)
	}
	h := acc.entropy()
	// Four distinct font lists over four records: 2 bits.
	if got := h[fingerprint.FeatFontList]; math.Abs(got-2) > 1e-9 {
		t.Errorf("font entropy = %v, want 2", got)
	}
	// Constant cores: 0 bits.
	if got := h[fingerprint.FeatCPUCores]; got != 0 {
		t.Errorf("cores entropy = %v, want 0", got)
	}
}

func TestFeatureEntropyEmpty(t *testing.T) {
	if h := NewTradeoffAccumulator().entropy(); len(h) != 0 {
		t.Fatalf("entropy of empty input = %v", h)
	}
}

func TestUniquenessLinkabilityOnWorld(t *testing.T) {
	ds, gt := world(t)
	acc := NewTradeoffAccumulator()
	for _, recs := range gt.Instances {
		acc.AddFirst(recs[0].FP)
	}
	for _, d := range dynamics.Changed(dynamics.Generate(gt)) {
		acc.AddChanged(d)
	}
	rows := acc.Rows()
	if len(rows) != int(fingerprint.NumFeatures) {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]TradeoffRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	fonts := byName["Font List"]
	tz := byName["Timezone"]
	// The paper's intuition: the font list is high-entropy AND stable —
	// a top-utility feature; timezone is low-entropy and user-volatile.
	if fonts.Utility <= tz.Utility {
		t.Errorf("font utility (%.2f) should exceed timezone utility (%.2f)",
			fonts.Utility, tz.Utility)
	}
	if fonts.EntropyBits < 3 {
		t.Errorf("font entropy %.2f suspiciously low", fonts.EntropyBits)
	}
	if tz.InstabilityPct <= fonts.InstabilityPct {
		t.Errorf("timezone instability (%.1f%%) should exceed fonts (%.1f%%)",
			tz.InstabilityPct, fonts.InstabilityPct)
	}
	// Sorted by utility.
	for i := 1; i < len(rows); i++ {
		if rows[i].Utility > rows[i-1].Utility {
			t.Fatal("rows not sorted by utility")
		}
	}
	t.Logf("top 5 by utility:")
	for _, r := range rows[:5] {
		t.Logf("  %-22s %5.2f bits, %5.1f%% unstable, utility %.2f",
			r.Name, r.EntropyBits, r.InstabilityPct, r.Utility)
	}
	_ = ds
}
