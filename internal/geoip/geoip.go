// Package geoip is the IP-geolocation substrate of the reproduction.
//
// The paper abstracts IP addresses into city/region/country features
// (Table 1) and, for Insight 1.4, resolves consecutive IPs to
// coordinates to compute a movement velocity: above 2,000 km/h implies a
// VPN or proxy. The real study used a public geolocation database; we
// substitute a synthetic one — a curated set of real-world city
// coordinates (the deployment website is European, so Europe is densest)
// extended procedurally to arbitrarily many cities. Every lookup is
// deterministic, and the IP address format is a valid dotted quad whose
// prefix encodes the city, so the whole pipeline handles realistic-
// looking addresses.
package geoip

import (
	"fmt"
	"math"
	"time"
)

// City is one geolocation database entry.
type City struct {
	Name    string
	Region  string
	Country string
	Lat     float64
	Lon     float64
}

// DB is an immutable geolocation database. The zero value is unusable;
// construct with New.
type DB struct {
	cities []City
	byName map[string]int
}

// seedCities are real-world anchors, including the two cities of the
// paper's VPN case study (Kaluga → Lagos → Kaluga).
var seedCities = []City{
	{"Amsterdam", "North Holland", "Netherlands", 52.37, 4.90},
	{"Berlin", "Berlin", "Germany", 52.52, 13.40},
	{"Munich", "Bavaria", "Germany", 48.14, 11.58},
	{"Paris", "Île-de-France", "France", 48.86, 2.35},
	{"Lyon", "Auvergne-Rhône-Alpes", "France", 45.76, 4.84},
	{"London", "England", "United Kingdom", 51.51, -0.13},
	{"Manchester", "England", "United Kingdom", 53.48, -2.24},
	{"Madrid", "Community of Madrid", "Spain", 40.42, -3.70},
	{"Barcelona", "Catalonia", "Spain", 41.39, 2.17},
	{"Rome", "Lazio", "Italy", 41.90, 12.50},
	{"Milan", "Lombardy", "Italy", 45.46, 9.19},
	{"Vienna", "Vienna", "Austria", 48.21, 16.37},
	{"Zurich", "Zurich", "Switzerland", 47.38, 8.54},
	{"Brussels", "Brussels", "Belgium", 50.85, 4.35},
	{"Copenhagen", "Capital Region", "Denmark", 55.68, 12.57},
	{"Stockholm", "Stockholm", "Sweden", 59.33, 18.07},
	{"Oslo", "Oslo", "Norway", 59.91, 10.75},
	{"Helsinki", "Uusimaa", "Finland", 60.17, 24.94},
	{"Warsaw", "Masovia", "Poland", 52.23, 21.01},
	{"Prague", "Prague", "Czechia", 50.08, 14.44},
	{"Budapest", "Budapest", "Hungary", 47.50, 19.04},
	{"Lisbon", "Lisbon", "Portugal", 38.72, -9.14},
	{"Dublin", "Leinster", "Ireland", 53.35, -6.26},
	{"Athens", "Attica", "Greece", 37.98, 23.73},
	{"Bucharest", "Bucharest", "Romania", 44.43, 26.10},
	{"Sofia", "Sofia", "Bulgaria", 42.70, 23.32},
	{"Zagreb", "Zagreb", "Croatia", 45.81, 15.98},
	{"Kaluga", "Kaluga Oblast", "Russia", 54.51, 36.26},
	{"Moscow", "Moscow", "Russia", 55.76, 37.62},
	{"Istanbul", "Istanbul", "Turkey", 41.01, 28.98},
	{"Kyiv", "Kyiv", "Ukraine", 50.45, 30.52},
	{"Lagos", "Lagos State", "Nigeria", 6.52, 3.38},
	{"Cairo", "Cairo", "Egypt", 30.04, 31.24},
	{"New York", "New York", "United States", 40.71, -74.01},
	{"San Francisco", "California", "United States", 37.77, -122.42},
	{"Toronto", "Ontario", "Canada", 43.65, -79.38},
	{"São Paulo", "São Paulo", "Brazil", -23.55, -46.63},
	{"Tokyo", "Tokyo", "Japan", 35.68, 139.69},
	{"Seoul", "Seoul", "South Korea", 37.57, 126.98},
	{"Singapore", "Singapore", "Singapore", 1.35, 103.82},
	{"Sydney", "New South Wales", "Australia", -33.87, 151.21},
	{"Mumbai", "Maharashtra", "India", 19.08, 72.88},
	{"Beijing", "Beijing", "China", 39.90, 116.41},
	{"Johannesburg", "Gauteng", "South Africa", -26.20, 28.05},
}

// New builds a database with the seed cities plus (n - len(seed))
// procedurally generated satellite cities placed around the seeds.
// Passing n <= len(seed) returns just the seed set.
func New(n int) *DB {
	db := &DB{byName: make(map[string]int)}
	db.cities = append(db.cities, seedCities...)
	for i := len(seedCities); i < n; i++ {
		anchor := seedCities[i%len(seedCities)]
		k := i / len(seedCities)
		// Scatter satellites deterministically within ~±2° of the anchor.
		dLat := float64((i*2654435761)%400-200) / 100.0
		dLon := float64((i*40503)%400-200) / 100.0
		db.cities = append(db.cities, City{
			Name:    fmt.Sprintf("%s Satellite %d", anchor.Name, k),
			Region:  anchor.Region,
			Country: anchor.Country,
			Lat:     clampLat(anchor.Lat + dLat),
			Lon:     wrapLon(anchor.Lon + dLon),
		})
	}
	for i, c := range db.cities {
		db.byName[c.Name] = i
	}
	return db
}

func clampLat(v float64) float64 {
	if v > 85 {
		return 85
	}
	if v < -85 {
		return -85
	}
	return v
}

func wrapLon(v float64) float64 {
	for v > 180 {
		v -= 360
	}
	for v < -180 {
		v += 360
	}
	return v
}

// Len returns the number of cities.
func (db *DB) Len() int { return len(db.cities) }

// CityAt returns the i-th city (i modulo the database size, so any
// non-negative index is valid — convenient for the simulator).
func (db *DB) CityAt(i int) City { return db.cities[i%len(db.cities)] }

// ByName looks up a city by exact name.
func (db *DB) ByName(name string) (City, bool) {
	i, ok := db.byName[name]
	if !ok {
		return City{}, false
	}
	return db.cities[i], true
}

// IPFor synthesizes a stable dotted-quad address for (city index, host).
// The first two octets encode the city, so the address inverts to it
// (the tests' Lookup); the rest encode the host. Addresses stay within 100.64.0.0/10-adjacent space to
// avoid colliding with documented real ranges in reports.
func (db *DB) IPFor(cityIdx, host int) string {
	cityIdx %= len(db.cities)
	return fmt.Sprintf("%d.%d.%d.%d", 100+cityIdx/200, cityIdx%200+1, (host/250)%250+1, host%250+1)
}

const earthRadiusKm = 6371.0

// Haversine returns the great-circle distance between two cities in km.
func Haversine(a, b City) float64 {
	lat1, lon1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	lat2, lon2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dLat, dLon := lat2-lat1, lon2-lon1
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// Velocity returns the implied movement speed in km/h between two cities
// visited dt apart. A non-positive dt yields +Inf for distinct cities
// and 0 for the same place.
func Velocity(a, b City, dt time.Duration) float64 {
	d := Haversine(a, b)
	if dt <= 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / dt.Hours()
}

// VPNThresholdKmh is the paper's Insight 1.4 cutoff: movement above
// 2,000 km/h is impossible even by plane, so the instance is using a
// VPN or proxy.
const VPNThresholdKmh = 2000.0

// FarFrom returns the index of a city at least minKm away from the
// city at idx, scanning deterministically from the given start offset
// (typically a random number). If no city qualifies, idx is returned.
func (db *DB) FarFrom(idx int, minKm float64, start int) int {
	from := db.CityAt(idx)
	n := len(db.cities)
	if start < 0 {
		start = -start
	}
	for k := 0; k < n; k++ {
		cand := (start + k) % n
		if Haversine(from, db.cities[cand]) >= minKm {
			return cand
		}
	}
	return idx % n
}
