package useragent

import (
	"fmt"
	"strconv"
	"strings"
)

// Version is a dotted software version with up to four components
// (major.minor.patch.build). Missing components are -1 and are omitted
// when formatting, so Version{63, 0, 3239, 132} prints "63.0.3239.132"
// while Version{11, 2, -1, -1} prints "11.2".
type Version struct {
	Major, Minor, Patch, Build int
}

// V constructs a Version from the given components; pass fewer than four
// to leave the remainder unset.
func V(parts ...int) Version {
	v := Version{-1, -1, -1, -1}
	if len(parts) > 0 {
		v.Major = parts[0]
	}
	if len(parts) > 1 {
		v.Minor = parts[1]
	}
	if len(parts) > 2 {
		v.Patch = parts[2]
	}
	if len(parts) > 3 {
		v.Build = parts[3]
	}
	return v
}

// ParseVersion parses a dotted version string. It accepts 1–4 numeric
// components; anything else is an error.
func ParseVersion(s string) (Version, error) {
	v := Version{-1, -1, -1, -1}
	if s == "" {
		return v, fmt.Errorf("useragent: empty version")
	}
	parts := strings.Split(s, ".")
	if len(parts) > 4 {
		return v, fmt.Errorf("useragent: too many version components in %q", s)
	}
	dst := []*int{&v.Major, &v.Minor, &v.Patch, &v.Build}
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return Version{-1, -1, -1, -1}, fmt.Errorf("useragent: bad version component %q in %q", p, s)
		}
		*dst[i] = n
	}
	return v, nil
}

// String formats the version, omitting unset trailing components.
func (v Version) String() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(v.Major))
	for _, c := range []int{v.Minor, v.Patch, v.Build} {
		if c < 0 {
			break
		}
		b.WriteByte('.')
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// Underscored formats like String but with underscores, the convention
// Apple platforms use inside user-agent strings ("10_13_2").
func (v Version) Underscored() string {
	return strings.ReplaceAll(v.String(), ".", "_")
}

// Compare returns -1, 0 or +1 as v is lower than, equal to, or higher
// than o. Unset components compare as zero, so 11 == 11.0.
func (v Version) Compare(o Version) int {
	cmp := func(a, b int) int {
		if a < 0 {
			a = 0
		}
		if b < 0 {
			b = 0
		}
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if c := cmp(v.Major, o.Major); c != 0 {
		return c
	}
	if c := cmp(v.Minor, o.Minor); c != 0 {
		return c
	}
	if c := cmp(v.Patch, o.Patch); c != 0 {
		return c
	}
	return cmp(v.Build, o.Build)
}
