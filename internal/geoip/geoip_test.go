package geoip

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNewSeedOnly(t *testing.T) {
	db := New(0)
	if db.Len() != len(seedCities) {
		t.Fatalf("Len = %d, want %d", db.Len(), len(seedCities))
	}
}

func TestNewProceduralExpansion(t *testing.T) {
	db := New(500)
	if db.Len() != 500 {
		t.Fatalf("Len = %d, want 500", db.Len())
	}
	// Satellites inherit their anchor's country.
	sat := db.CityAt(len(seedCities))
	if sat.Country != seedCities[0].Country {
		t.Errorf("satellite country = %q, want %q", sat.Country, seedCities[0].Country)
	}
	for i := 0; i < db.Len(); i++ {
		c := db.CityAt(i)
		if c.Lat < -90 || c.Lat > 90 || c.Lon < -180 || c.Lon > 180 {
			t.Fatalf("city %d has out-of-range coordinates: %+v", i, c)
		}
	}
}

func TestByName(t *testing.T) {
	db := New(0)
	c, ok := db.ByName("Kaluga")
	if !ok || c.Country != "Russia" {
		t.Fatalf("Kaluga lookup = %+v, %v", c, ok)
	}
	if _, ok := db.ByName("Atlantis"); ok {
		t.Fatal("nonexistent city resolved")
	}
}

// Lookup resolves an address produced by IPFor back to its city: the
// oracle that shows IPFor keeps the city recoverable.
func (db *DB) Lookup(ip string) (City, bool) {
	parts := strings.Split(ip, ".")
	if len(parts) != 4 {
		return City{}, false
	}
	a, err1 := strconv.Atoi(parts[0])
	b, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || a < 100 || b < 1 {
		return City{}, false
	}
	idx := (a-100)*200 + b - 1
	if idx < 0 || idx >= len(db.cities) {
		return City{}, false
	}
	return db.cities[idx], true
}

func TestIPForLookupRoundTrip(t *testing.T) {
	db := New(300)
	for _, idx := range []int{0, 1, 43, 44, 199, 200, 299} {
		for _, host := range []int{0, 1, 249, 250, 62499} {
			ip := db.IPFor(idx, host)
			c, ok := db.Lookup(ip)
			if !ok {
				t.Fatalf("Lookup(%s) failed for city %d", ip, idx)
			}
			if c != db.CityAt(idx) {
				t.Fatalf("Lookup(%s) = %+v, want %+v", ip, c, db.CityAt(idx))
			}
		}
	}
}

func TestLookupRejectsGarbage(t *testing.T) {
	db := New(50)
	for _, ip := range []string{"", "1.2.3", "8.8.8.8", "a.b.c.d", "99.1.1.1"} {
		if _, ok := db.Lookup(ip); ok {
			t.Errorf("Lookup(%q) should fail", ip)
		}
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	db := New(0)
	berlin, _ := db.ByName("Berlin")
	paris, _ := db.ByName("Paris")
	d := Haversine(berlin, paris)
	// Real-world Berlin–Paris is ~878 km.
	if d < 800 || d > 950 {
		t.Errorf("Berlin-Paris = %.0f km, want ~878", d)
	}
	if Haversine(berlin, berlin) != 0 {
		t.Error("distance to self must be 0")
	}
}

func TestVelocityVPNCaseStudy(t *testing.T) {
	// The paper's case study: Kaluga → Lagos in one day (plausible by
	// plane? Kaluga-Lagos is ~5,900 km, 1 day → ~246 km/h: below
	// threshold), then Lagos → Kaluga two hours later: ~2,950 km/h,
	// clearly VPN.
	db := New(0)
	kaluga, _ := db.ByName("Kaluga")
	lagos, _ := db.ByName("Lagos")
	v1 := Velocity(kaluga, lagos, 24*time.Hour)
	if v1 > VPNThresholdKmh {
		t.Errorf("day-long trip flagged as VPN: %.0f km/h", v1)
	}
	v2 := Velocity(lagos, kaluga, 2*time.Hour)
	if v2 <= VPNThresholdKmh {
		t.Errorf("two-hour return not flagged: %.0f km/h", v2)
	}
}

func TestVelocityDegenerate(t *testing.T) {
	db := New(0)
	a, _ := db.ByName("Berlin")
	b, _ := db.ByName("Paris")
	if v := Velocity(a, a, 0); v != 0 {
		t.Errorf("same-place zero-dt velocity = %v, want 0", v)
	}
	if v := Velocity(a, b, 0); !math.IsInf(v, 1) {
		t.Errorf("distinct-place zero-dt velocity = %v, want +Inf", v)
	}
}

// Property: haversine is symmetric, non-negative and bounded by half the
// Earth's circumference.
func TestHaversineProperty(t *testing.T) {
	db := New(1000)
	f := func(i, j uint16) bool {
		a, b := db.CityAt(int(i)), db.CityAt(int(j))
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-6 && d1 <= math.Pi*earthRadiusKm+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every synthesized IP inverts to its city.
func TestIPRoundTripProperty(t *testing.T) {
	db := New(777)
	f := func(idx uint16, host uint16) bool {
		c, ok := db.Lookup(db.IPFor(int(idx), int(host)))
		return ok && c == db.CityAt(int(idx))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
