package browserid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/useragent"
)

// rec builds a minimal record for ground-truth tests.
func rec(t time.Time, user, cookie, browser, os, device string, cores int) *fingerprint.Record {
	return &fingerprint.Record{
		Time:   t,
		UserID: user,
		Cookie: cookie,
		FP: &fingerprint.Fingerprint{
			CPUClass:    "x86",
			CPUCores:    cores,
			GPUVendor:   "Intel Inc.",
			GPURenderer: "Intel(R) HD Graphics 520",
		},
		Browser: browser,
		OS:      os,
		Device:  device,
	}
}

var t0 = time.Date(2017, 12, 1, 0, 0, 0, 0, time.UTC)

func at(h int) time.Time { return t0.Add(time.Duration(h) * time.Hour) }

func TestInitialIDStable(t *testing.T) {
	a := rec(at(0), "u1", "c1", "Chrome", "Windows", "", 4)
	b := rec(at(1), "u1", "c1", "Chrome", "Windows", "", 4)
	if InitialID(a) != InitialID(b) {
		t.Fatal("same stable features must give the same initial ID")
	}
}

// TestFormatIDMatchesFmt pins the hand-rolled hex rendering to the
// fmt form the IDs have always had.
func TestFormatIDMatchesFmt(t *testing.T) {
	hashes := []uint64{0, 1, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	for range 10000 {
		hashes = append(hashes, rng.Uint64())
	}
	for _, h := range hashes {
		if got, want := formatID(h), fmt.Sprintf("bid-%016x", h); got != want {
			t.Fatalf("formatID(%#x) = %q, want %q", h, got, want)
		}
	}
}

func TestInitialIDDiscriminates(t *testing.T) {
	base := rec(at(0), "u1", "c1", "Chrome", "Windows", "", 4)
	variants := []*fingerprint.Record{
		rec(at(0), "u2", "c1", "Chrome", "Windows", "", 4),  // different user
		rec(at(0), "u1", "c1", "Firefox", "Windows", "", 4), // different browser
		rec(at(0), "u1", "c1", "Chrome", "Mac OS X", "", 4), // different OS
		rec(at(0), "u1", "c1", "Chrome", "Windows", "", 8),  // different cores
	}
	for i, v := range variants {
		if InitialID(base) == InitialID(v) {
			t.Errorf("variant %d should have a different initial ID", i)
		}
	}
}

func TestInitialIDIgnoresUserControlledFeatures(t *testing.T) {
	a := rec(at(0), "u1", "c1", "Chrome", "Windows", "", 4)
	b := rec(at(1), "u1", "c1", "Chrome", "Windows", "", 4)
	b.FP.CookieEnabled = true
	b.FP.LocalStorage = true
	b.FP.TimezoneOffset = 540
	if InitialID(a) != InitialID(b) {
		t.Fatal("user-controlled features must not affect the browser ID")
	}
}

func TestBuildGroupsVisits(t *testing.T) {
	recs := []*fingerprint.Record{
		rec(at(0), "u1", "c1", "Chrome", "Windows", "", 4),
		rec(at(1), "u1", "c1", "Chrome", "Windows", "", 4),
		rec(at(2), "u2", "c2", "Firefox", "Mac OS X", "", 8),
	}
	gt := Build(recs)
	if gt.NumInstances() != 2 {
		t.Fatalf("instances = %d, want 2", gt.NumInstances())
	}
	if gt.IDs[0] != gt.IDs[1] || gt.IDs[0] == gt.IDs[2] {
		t.Fatalf("IDs = %v", gt.IDs)
	}
}

func TestDesktopRequestLinking(t *testing.T) {
	// A mobile Chrome user requests the desktop page: the UA-derived
	// stable features change (browser family, OS, device), so the
	// initial IDs differ — the shared (user, cookie) pair must link them.
	mobile := rec(at(0), "u1", "ck", useragent.ChromeMobile, useragent.Android, "SM-G920F", 8)
	desktop := rec(at(1), "u1", "ck", useragent.Chrome, useragent.Linux, "", 8)
	back := rec(at(2), "u1", "ck", useragent.ChromeMobile, useragent.Android, "SM-G920F", 8)
	if InitialID(mobile) == InitialID(desktop) {
		t.Fatal("precondition: initial IDs should differ")
	}
	gt := Build([]*fingerprint.Record{mobile, desktop, back})
	if gt.NumInstances() != 1 {
		t.Fatalf("instances = %d, want 1 after linking", gt.NumInstances())
	}
	if gt.IDs[0] != gt.IDs[1] || gt.IDs[1] != gt.IDs[2] {
		t.Fatalf("IDs = %v, want all equal", gt.IDs)
	}
}

func TestNoLinkingAcrossUsers(t *testing.T) {
	// The same cookie value under different users must NOT link (cookies
	// are per-browser; a collision across users is an anomaly the FN
	// estimator counts, not a linking signal).
	a := rec(at(0), "u1", "ck", "Chrome", "Windows", "", 4)
	b := rec(at(1), "u2", "ck", "Chrome", "Mac OS X", "", 4)
	gt := Build([]*fingerprint.Record{a, b})
	if gt.NumInstances() != 2 {
		t.Fatalf("instances = %d, want 2", gt.NumInstances())
	}
}

func TestCookieClearingShare(t *testing.T) {
	recs := []*fingerprint.Record{
		// Instance 1: keeps one cookie.
		rec(at(0), "u1", "c1", "Chrome", "Windows", "", 4),
		rec(at(1), "u1", "c1", "Chrome", "Windows", "", 4),
		// Instance 2: clears cookies once (two cookie identities).
		rec(at(0), "u2", "c2", "Firefox", "Windows", "", 4),
		rec(at(1), "u2", "c3", "Firefox", "Windows", "", 4),
	}
	gt := Build(recs)
	if got := gt.Accumulate().CookieClearingShare(); got != 0.5 {
		t.Fatalf("clearing share = %v, want 0.5", got)
	}
}

func TestMultiBrowserUserShare(t *testing.T) {
	recs := []*fingerprint.Record{
		rec(at(0), "u1", "c1", "Chrome", "Windows", "", 4),
		rec(at(1), "u1", "c2", "Firefox", "Windows", "", 4), // same user, 2nd browser
		rec(at(0), "u2", "c3", "Chrome", "Windows", "", 4),
	}
	gt := Build(recs)
	if got := gt.Accumulate().MultiBrowserUserShare(); got != 0.5 {
		t.Fatalf("multi-browser share = %v, want 0.5", got)
	}
}

func TestEstimateFalsePositiveInterleaved(t *testing.T) {
	// One browser ID carrying two alternating recurring cookies: the
	// computer-lab scenario. Must be flagged as a false positive.
	recs := []*fingerprint.Record{
		rec(at(0), "u1", "cA", "Chrome", "Windows", "", 4),
		rec(at(1), "u1", "cB", "Chrome", "Windows", "", 4),
		rec(at(2), "u1", "cA", "Chrome", "Windows", "", 4),
		rec(at(3), "u1", "cB", "Chrome", "Windows", "", 4),
		// A clean second instance to dilute the rate.
		rec(at(0), "u2", "c2", "Firefox", "Windows", "", 4),
	}
	gt := Build(recs)
	r := gt.Estimate()
	if len(r.InterleavedInstances) != 1 {
		t.Fatalf("interleaved = %v, want exactly 1", r.InterleavedInstances)
	}
	if r.FalsePositiveRate != 0.5 {
		t.Fatalf("FP rate = %v, want 0.5", r.FalsePositiveRate)
	}
}

// TestEstimateInterleavedSortedInAnyFeedOrder: instances fed in
// reverse ID order still come back from Rates as a sorted list.
func TestEstimateInterleavedSortedInAnyFeedOrder(t *testing.T) {
	e := NewEstimateAccumulator()
	for _, id := range []string{"bid-c", "bid-b", "bid-a"} {
		e.AddInstance(id, "u-"+id, []string{id + "1", id + "2", id + "1", id + "2"})
	}
	got := e.Rates().InterleavedInstances
	if fmt.Sprint(got) != "[bid-a bid-b bid-c]" {
		t.Fatalf("interleaved = %v, want [bid-a bid-b bid-c]", got)
	}
}

func TestEstimateCookieDeletionNotFlagged(t *testing.T) {
	// Plain cookie deletion: c1 c1 c2 c2 — never flagged.
	recs := []*fingerprint.Record{
		rec(at(0), "u1", "c1", "Chrome", "Windows", "", 4),
		rec(at(1), "u1", "c1", "Chrome", "Windows", "", 4),
		rec(at(2), "u1", "c2", "Chrome", "Windows", "", 4),
		rec(at(3), "u1", "c2", "Chrome", "Windows", "", 4),
	}
	r := Build(recs).Estimate()
	if r.FalsePositiveRate != 0 {
		t.Fatalf("deletion pattern flagged as FP: %+v", r)
	}
}

func TestEstimatePrivateBrowsingNotFlagged(t *testing.T) {
	// Private browsing: persistent c1 with throwaway one-shot cookies
	// between occurrences. The throwaways never recur, so no flag.
	recs := []*fingerprint.Record{
		rec(at(0), "u1", "c1", "Chrome", "Windows", "", 4),
		rec(at(1), "u1", "priv-1", "Chrome", "Windows", "", 4),
		rec(at(2), "u1", "c1", "Chrome", "Windows", "", 4),
		rec(at(3), "u1", "priv-2", "Chrome", "Windows", "", 4),
		rec(at(4), "u1", "c1", "Chrome", "Windows", "", 4),
	}
	r := Build(recs).Estimate()
	if r.FalsePositiveRate != 0 {
		t.Fatalf("private browsing pattern flagged as FP: %+v", r)
	}
}

func TestEstimateFalseNegativeSharedCookie(t *testing.T) {
	// The iTunes-backup scenario: the same cookie appears under two
	// different final instances (different users here, so no linking).
	recs := []*fingerprint.Record{
		rec(at(0), "u1", "shared", "Chrome", "Windows", "", 4),
		rec(at(1), "u2", "shared", "Chrome", "Mac OS X", "", 4),
		rec(at(0), "u3", "c3", "Firefox", "Windows", "", 4),
		rec(at(1), "u3", "c4", "Firefox", "Windows", "", 4), // clears cookies
	}
	gt := Build(recs)
	r := gt.Estimate()
	if r.AbnormalSharedCookieRate <= 0 {
		t.Fatal("shared cookie across instances not counted as abnormal")
	}
	if r.FalseNegativeRate <= 0 {
		t.Fatal("FN rate should be positive when abnormal cases exist and cookies are cleared")
	}
}

func TestEstimateEmpty(t *testing.T) {
	r := Build(nil).Estimate()
	if r.FalsePositiveRate != 0 || r.FalseNegativeRate != 0 {
		t.Fatalf("empty estimate = %+v", r)
	}
}

func TestHasInterleavedCookiesUnit(t *testing.T) {
	cases := []struct {
		seq  []string
		want bool
	}{
		{nil, false},
		{[]string{"a"}, false},
		{[]string{"a", "a", "b", "b"}, false},          // deletion
		{[]string{"a", "b", "a"}, false},               // b appears once: private browsing
		{[]string{"a", "b", "a", "b"}, true},           // interleaved
		{[]string{"a", "b", "b", "a"}, true},           // nested recurring
		{[]string{"x", "x", "x"}, false},               // single cookie
		{[]string{"a", "b", "c", "a", "c", "b"}, true}, // three-way
	}
	for _, c := range cases {
		if got := hasInterleavedCookies(c.seq); got != c.want {
			t.Errorf("hasInterleavedCookies(%v) = %v, want %v", c.seq, got, c.want)
		}
	}
}

func TestBuildManyInstancesScale(t *testing.T) {
	var recs []*fingerprint.Record
	for u := 0; u < 500; u++ {
		user := fmt.Sprintf("user-%d", u)
		cookie := fmt.Sprintf("ck-%d", u)
		for v := 0; v < 3; v++ {
			recs = append(recs, rec(at(u*10+v), user, cookie, "Chrome", "Windows", "", 4))
		}
	}
	gt := Build(recs)
	if gt.NumInstances() != 500 {
		t.Fatalf("instances = %d, want 500", gt.NumInstances())
	}
	if gt.Accumulate().MultiBrowserUserShare() != 0 {
		t.Fatal("no user has multiple browsers here")
	}
}

func BenchmarkBuild(b *testing.B) {
	var recs []*fingerprint.Record
	for u := 0; u < 1000; u++ {
		user := fmt.Sprintf("user-%d", u)
		for v := 0; v < 5; v++ {
			recs = append(recs, rec(at(u*10+v), user, fmt.Sprintf("ck-%d", u), "Chrome", "Windows", "", 4))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(recs)
	}
}
