package browserid

// The §2.3.3 estimation of browser-ID quality. Both estimates lean on
// cookie appearance patterns:
//
//   - False negative (two browser IDs should be one): the same cookie
//     shows up under two *final* browser IDs of the same user. Those
//     cases are linked when observable; the residual risk comes from
//     the ~32% of instances that clear cookies, where the signal is
//     unavailable. We extrapolate the observed abnormal rate onto the
//     cookie-clearing share, as the paper does.
//
//   - False positive (one browser ID should be two): two cookies
//     interleave in the instance's visit timeline (c1 … c2 … c1 with
//     both cookies recurring). Cookie deletion never resurrects an old
//     cookie and private browsing cookies appear exactly once, so a
//     genuine interleaving means two physical browsers were merged —
//     e.g. two identically configured lab machines used by one account.

// Rates is the §2.3.3 estimate.
type Rates struct {
	// AbnormalSharedCookieRate is the observed rate of instances whose
	// cookie also appeared under a different instance of the same user
	// before linking (paper: ~0.5%).
	AbnormalSharedCookieRate float64
	// CookieClearingShare is the fraction of instances with >1 cookie
	// (paper: ~32%).
	CookieClearingShare float64
	// FalseNegativeRate extrapolates the abnormal rate onto the
	// unobservable cookie-clearing population (paper: ~0.3%).
	FalseNegativeRate float64
	// FalsePositiveRate is the share of instances with interleaved
	// recurring cookies (paper: ~0.1%).
	FalsePositiveRate float64
	// InterleavedInstances lists the offending browser IDs for manual
	// inspection, sorted.
	InterleavedInstances []string
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// hasInterleavedCookies reports whether the sequence contains two
// distinct cookies that both recur and whose occurrence spans overlap —
// the "c1 … c2 … c1 again" pattern of §2.3.3. Deletion (each cookie one
// contiguous run) and private browsing (throwaway cookies appearing
// once) do not trigger it.
func hasInterleavedCookies(seq []string) bool {
	type span struct{ first, last, count int }
	spans := make(map[string]*span)
	for i, c := range seq {
		s := spans[c]
		if s == nil {
			spans[c] = &span{first: i, last: i, count: 1}
			continue
		}
		s.last = i
		s.count++
	}
	// Collect recurring cookies only.
	var rec []*span
	for _, s := range spans {
		if s.count >= 2 {
			rec = append(rec, s)
		}
	}
	for i := 0; i < len(rec); i++ {
		for j := i + 1; j < len(rec); j++ {
			a, b := rec[i], rec[j]
			if a.first > b.first {
				a, b = b, a
			}
			// b starts inside a's span: they interleave.
			if b.first < a.last {
				return true
			}
		}
	}
	return false
}
