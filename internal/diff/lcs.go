package diff

// DiffSubfields aligns two ordered subfield sequences with a longest-
// common-subsequence pass and emits the minimal edit script as
// replace/insert/delete operations. Directly adjacent delete+insert
// pairs (no matching token between them) are fused into replacements,
// so a version bump "56"→"57" reads as one OpReplace rather than a
// delete and an insert — the canonical form the paper's delta collision
// property relies on.
//
// Each edit carries its position in the *original* sequence, which
// makes the script exactly replayable (the tests replay it with
// ApplySubfields); positions are excluded from FieldDelta.Key so
// identical updates still collide across instances whose strings have
// different shapes.
func DiffSubfields(a, b []string) []SubfieldEdit {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return nil
	}
	// LCS dynamic program. Header/UA token sequences are short (tens of
	// tokens), so the O(n·m) table is cheap.
	dp := make([][]int32, n+1)
	for i := range dp {
		dp[i] = make([]int32, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}

	var edits []SubfieldEdit
	// lastWasDelete tracks whether the previous emission was a delete
	// with no match in between, enabling delete+insert fusion into a
	// replace (and vice versa for insert+delete).
	i, j := 0, 0
	for i < n || j < m {
		switch {
		case i < n && j < m && a[i] == b[j]:
			i++
			j++
		case j >= m || (i < n && dp[i+1][j] >= dp[i][j+1]):
			// Delete a[i]; if the symmetric insert comes next, fuse.
			if k := len(edits) - 1; k >= 0 && edits[k].Op == OpInsert && edits[k].Pos == i {
				edits[k] = SubfieldEdit{Op: OpReplace, Pos: i, Old: a[i], New: edits[k].New, Prev: prevTok(a, i)}
			} else {
				edits = append(edits, SubfieldEdit{Op: OpDelete, Pos: i, Old: a[i], Prev: prevTok(a, i)})
			}
			i++
		default:
			// Insert b[j] before a[i]; fuse with an immediately preceding
			// delete of a[i-1] into a replace at that position.
			if k := len(edits) - 1; k >= 0 && edits[k].Op == OpDelete && edits[k].Pos == i-1 {
				edits[k] = SubfieldEdit{Op: OpReplace, Pos: i - 1, Old: edits[k].Old, New: b[j], Prev: prevTok(a, i-1)}
			} else {
				edits = append(edits, SubfieldEdit{Op: OpInsert, Pos: i, New: b[j], Prev: prevTok(a, i)})
			}
			j++
		}
	}
	return edits
}

// prevTok returns the token before position i, or "" at the start.
func prevTok(a []string, i int) string {
	if i <= 0 || i > len(a) {
		return ""
	}
	return a[i-1]
}
