package diff

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// diffSetsOracle is the two-map form of DiffSets, kept as the
// reference its equal-input shortcut must reproduce.
func diffSetsOracle(a, b []string) (added, deleted []string) {
	inA := make(map[string]bool, len(a))
	for _, s := range a {
		inA[s] = true
	}
	inB := make(map[string]bool, len(b))
	for _, s := range b {
		inB[s] = true
	}
	for s := range inB {
		if !inA[s] {
			added = append(added, s)
		}
	}
	for s := range inA {
		if !inB[s] {
			deleted = append(deleted, s)
		}
	}
	sort.Strings(added)
	sort.Strings(deleted)
	return added, deleted
}

// randomSet draws a set feature value from a small pool: nil, empty,
// or a list that may repeat names and may be unsorted.
func randomSet(rng *rand.Rand) []string {
	pool := []string{"Arial", "Calibri", "MT Extra", "Tahoma", "en-US", "fr", ""}
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, rng.Intn(8))
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	if rng.Intn(2) == 0 {
		sort.Strings(out)
	}
	return out
}

// TestDiffSetsMatchesOracle checks DiffSets against the two-map oracle
// on random pairs, a third of them equal or permuted copies, and pins
// that an unchanged set yields nil, nil.
func TestDiffSetsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		a := randomSet(rng)
		var b []string
		switch rng.Intn(3) {
		case 0:
			b = slices.Clone(a)
		case 1:
			b = slices.Clone(a)
			rng.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
		default:
			b = randomSet(rng)
		}
		added, deleted := DiffSets(a, b)
		wantAdded, wantDeleted := diffSetsOracle(a, b)
		if !reflect.DeepEqual(added, wantAdded) || !reflect.DeepEqual(deleted, wantDeleted) {
			t.Fatalf("DiffSets(%q, %q) = %#v, %#v, want %#v, %#v",
				a, b, added, deleted, wantAdded, wantDeleted)
		}
	}
	for _, c := range [][2][]string{
		{nil, nil}, {nil, {}}, {{}, nil}, {{"a", "b"}, {"a", "b"}}, {{"b", "a", "a"}, {"a", "b"}},
	} {
		if added, deleted := DiffSets(c[0], c[1]); added != nil || deleted != nil {
			t.Errorf("DiffSets(%q, %q) = %#v, %#v, want nil, nil", c[0], c[1], added, deleted)
		}
	}
}
