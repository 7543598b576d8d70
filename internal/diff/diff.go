// Package diff implements the paper's diff operation (§2.3.2): the
// delta between two consecutive fingerprints of the same browser
// instance. Depending on the feature kind there are three operations:
//
//   - string features are parsed into ordered subfields (browser name,
//     version, punctuation, even whitespace) and diffed subfield by
//     subfield, so that a Chrome 56→57 update yields the same delta on
//     every instance regardless of the rest of the string;
//   - set features (fonts, plugins, languages) are diffed by two
//     subtractions, yielding added and deleted element sets;
//   - complex features (canvas, GPU images) are diffed as a pair of
//     hashes — the paper argues pixel deltas carry little linkable
//     information and are heavyweight to compute.
//
// Every delta has a canonical Key so that identical updates applied to
// different browser instances collide to the same dynamics value; that
// collision is what makes the dynamics dataset compact (Table 1's
// dynamics columns) and what powers the correlation mining of Insight 3.
package diff

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/useragent"
)

// Op is a subfield edit operation.
type Op byte

const (
	// OpReplace substitutes one subfield value for another.
	OpReplace Op = 'R'
	// OpInsert adds a subfield that was not present before.
	OpInsert Op = 'I'
	// OpDelete removes a subfield.
	OpDelete Op = 'D'
)

// SubfieldEdit is one ordered-subfield edit within a string feature.
// Pos is the position in the original subfield sequence (the token
// consumed for deletes/replaces, the insertion point for inserts); it
// makes the script exactly replayable but is excluded from delta keys.
// Prev is the token preceding Pos in the source — the anchoring
// context TransferDelta uses to apply the script to a differently
// shaped string (so a "64"→"65" version bump lands on "Chrome/64",
// not on the "Win64" platform token).
type SubfieldEdit struct {
	Op   Op     `json:"op"`
	Pos  int    `json:"pos"`
	Old  string `json:"old,omitempty"`  // empty for inserts
	New  string `json:"new,omitempty"`  // empty for deletes
	Prev string `json:"prev,omitempty"` // source token before Pos; "" at start
}

// FieldDelta is the change to a single feature.
type FieldDelta struct {
	Feature fingerprint.ID   `json:"feat"`
	Kind    fingerprint.Kind `json:"kind"`

	// String-kind payload.
	Edits []SubfieldEdit `json:"edits,omitempty"`

	// Set-kind payload (sorted).
	Added   []string `json:"added,omitempty"`
	Deleted []string `json:"deleted,omitempty"`

	// Hash-kind payload.
	OldHash string `json:"oldHash,omitempty"`
	NewHash string `json:"newHash,omitempty"`
}

// Key returns the canonical identity of this field change. Two
// instances receiving the same update produce the same key even when
// their absolute feature values differ (for sets and subfield edits);
// positions are deliberately excluded so a version-token replacement
// matches across differently-shaped strings.
func (fd *FieldDelta) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", fd.Feature)
	switch fd.Kind {
	case fingerprint.KindString:
		for _, e := range fd.Edits {
			fmt.Fprintf(&b, "%c(%s=>%s)", e.Op, e.Old, e.New)
		}
	case fingerprint.KindSet:
		b.WriteString("+")
		b.WriteString(strings.Join(fd.Added, ","))
		b.WriteString("-")
		b.WriteString(strings.Join(fd.Deleted, ","))
	case fingerprint.KindHash:
		fmt.Fprintf(&b, "%s=>%s", fd.OldHash, fd.NewHash)
	}
	return b.String()
}

// Delta is a full dynamics record: every feature that changed between
// two consecutive fingerprints of one browser instance. The zero value
// is an empty delta.
type Delta struct {
	Fields []FieldDelta `json:"fields"`
}

// Empty reports whether no feature changed.
func (d *Delta) Empty() bool { return len(d.Fields) == 0 }

// Has reports whether feature id changed in this delta.
func (d *Delta) Has(id fingerprint.ID) bool {
	for i := range d.Fields {
		if d.Fields[i].Feature == id {
			return true
		}
	}
	return false
}

// Field returns the delta for feature id, or nil if it did not change.
func (d *Delta) Field(id fingerprint.ID) *FieldDelta {
	for i := range d.Fields {
		if d.Fields[i].Feature == id {
			return &d.Fields[i]
		}
	}
	return nil
}

// Key returns the canonical identity of the whole delta: the
// concatenation of per-field keys in schema order.
func (d *Delta) Key() string {
	parts := make([]string, len(d.Fields))
	for i := range d.Fields {
		parts[i] = d.Fields[i].Key()
	}
	return strings.Join(parts, ";")
}

// FeatureIDs returns the IDs of all changed features in schema order.
func (d *Delta) FeatureIDs() []fingerprint.ID {
	out := make([]fingerprint.ID, len(d.Fields))
	for i := range d.Fields {
		out[i] = d.Fields[i].Feature
	}
	return out
}

// Diff computes the delta between two fingerprints, walking every
// schema feature. IP features are included (the paper's Table 1 reports
// IP dynamics) — callers that want the core-only view can filter with
// the schema's IsIP flag.
func Diff(a, b *fingerprint.Fingerprint) *Delta {
	d := &Delta{}
	for _, desc := range fingerprint.Schema {
		va, vb := a.Value(desc.ID), b.Value(desc.ID)
		switch desc.Kind {
		case fingerprint.KindString:
			if va.Str == vb.Str {
				continue
			}
			edits := DiffSubfields(useragent.Subfields(va.Str), useragent.Subfields(vb.Str))
			d.Fields = append(d.Fields, FieldDelta{
				Feature: desc.ID, Kind: desc.Kind, Edits: edits,
			})
		case fingerprint.KindSet:
			added, deleted := DiffSets(va.Set, vb.Set)
			if len(added) == 0 && len(deleted) == 0 {
				continue
			}
			d.Fields = append(d.Fields, FieldDelta{
				Feature: desc.ID, Kind: desc.Kind, Added: added, Deleted: deleted,
			})
		case fingerprint.KindHash:
			if va.Str == vb.Str {
				continue
			}
			d.Fields = append(d.Fields, FieldDelta{
				Feature: desc.ID, Kind: desc.Kind, OldHash: va.Str, NewHash: vb.Str,
			})
		}
	}
	return d
}

// DiffSets computes the two subtractions of §2.3.2: elements of b not
// in a (added) and elements of a not in b (deleted). Results are sorted,
// and nil when empty.
func DiffSets(a, b []string) (added, deleted []string) {
	if slices.Equal(a, b) {
		return nil, nil
	}
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
