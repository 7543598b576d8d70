package fingerprint

import "time"

// Record is one visit as stored by the collection server: the
// fingerprint plus the out-of-band identifiers the study uses for
// ground-truth construction (§2.2): the anonymized user ID (a hash of
// the username), the cookie instance the browser presented, and the
// collection timestamp.
type Record struct {
	Time    time.Time    `json:"t"`
	UserID  string       `json:"uid"`    // anonymized username hash
	Cookie  string       `json:"cookie"` // cookie instance ID; "" if cookies cleared/disabled
	FP      *Fingerprint `json:"fp"`
	Browser string       `json:"browser"` // parsed browser family (derived from UA at collection)
	OS      string       `json:"os"`      // parsed OS family
	Device  string       `json:"device"`  // parsed device model
	Mobile  bool         `json:"mobile"`
}
