package iyp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Config sizes the synthetic world. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	Seed          int64
	NumASes       int
	NumIXPs       int
	NumFacilities int
	NumDomains    int
	// PrefixBudget caps the total number of originated prefixes (spread
	// Zipf-like across ASes).
	PrefixBudget int
}

// DefaultConfig is the dataset used by examples and the evaluation: big
// enough that every benchmark template has non-trivial answers, small
// enough to build in well under a second.
func DefaultConfig() Config {
	return Config{
		Seed:          42,
		NumASes:       600,
		NumIXPs:       40,
		NumFacilities: 60,
		NumDomains:    300,
		PrefixBudget:  2400,
	}
}

// SmallConfig is a fast configuration for unit tests.
func SmallConfig() Config {
	return Config{
		Seed:          7,
		NumASes:       80,
		NumIXPs:       8,
		NumFacilities: 10,
		NumDomains:    40,
		PrefixBudget:  300,
	}
}

// ASSpec is the intermediate model of one autonomous system before it is
// materialized into the graph by the crawlers.
type ASSpec struct {
	ASN         int64
	Name        string
	OrgName     string
	Country     CountryInfo
	SizeRank    int // 0 = biggest; drives Zipf-ish attribute scaling
	NumPrefixes int // IPv4+IPv6 prefixes originated
	// Prefixes holds the concrete CIDRs once the BGP crawler has
	// materialized them (empty before Build).
	Prefixes []string
	// ROAPrefixes is the subset of Prefixes covered by a ROA (filled by
	// the RPKI crawler).
	ROAPrefixes []string
	Tags        []string
	IXPs        []int     // indexes into World.IXPs
	Providers   []int     // indexes into World.ASes (upstreams)
	Peers       []int     // indexes into World.ASes (lateral peers)
	Hegemons    []HegSpec // ASes this one depends on
	PopPercent  float64   // share of home-country population, 0 if none
	CAIDARank   int       // 1-based; 0 means unranked
}

type HegSpec struct {
	Upstream int // index into World.ASes
	Score    float64
}

// IXPSpec models one exchange point.
type IXPSpec struct {
	Name     string
	Country  CountryInfo
	Facility int // index into World.Facilities
}

// FacilitySpec models one colocation facility.
type FacilitySpec struct {
	Name    string
	Country CountryInfo
}

// DomainSpec models one ranked domain.
type DomainSpec struct {
	Name string
	Rank int
	// HostAS indexes the AS hosting the domain's A record.
	HostAS int
}

// World is the synthetic ground truth all crawlers materialize from.
// Keeping it separate from the graph mirrors how the real IYP crawls
// external datasets, and gives the benchmark generator a typed view of
// what exists.
type World struct {
	Config     Config
	ASes       []ASSpec
	IXPs       []IXPSpec
	Facilities []FacilitySpec
	Domains    []DomainSpec
	Countries  []CountryInfo // countries actually used
}

// nameRetries bounds random-name collision retries before generators
// fall back to a deterministic numbered variant. Every name pool is
// finite (operators ≈ 1200 combinations, facilities ≈ 200, IXPs ≈ 90,
// domains ≈ 20k), so unbounded retries would hang on saturated pools at
// benchmark scale.
const nameRetries = 16

// NewWorld deterministically generates the synthetic world.
func NewWorld(cfg Config) *World {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{Config: cfg}

	// Facilities first (IXPs reference them). Every name pool below is
	// finite, so retries are bounded: after nameRetries misses the
	// generator switches to a deterministic numbered variant that the
	// natural pools cannot produce (world index i makes it unique).
	usedFacNames := map[string]bool{}
	for i := 0; i < cfg.NumFacilities; i++ {
		city := facilityCities[rng.Intn(len(facilityCities))]
		name := facilityName(rng, city)
		for tries := 0; usedFacNames[name]; tries++ {
			if tries == nameRetries {
				// Natural facility names end in DC1..DC9.
				name = fmt.Sprintf("%s DC%d", city, i+10)
				break
			}
			name = facilityName(rng, facilityCities[rng.Intn(len(facilityCities))])
		}
		usedFacNames[name] = true
		w.Facilities = append(w.Facilities, FacilitySpec{Name: name, Country: pickWeightedCountry(rng)})
	}

	usedIXPNames := map[string]bool{}
	for i := 0; i < cfg.NumIXPs; i++ {
		fac := rng.Intn(len(w.Facilities))
		city := facilityCities[rng.Intn(len(facilityCities))]
		name := ixpName(rng, city)
		for tries := 0; usedIXPNames[name]; tries++ {
			if tries == nameRetries {
				// Natural IXP names never carry a numeric suffix.
				name = fmt.Sprintf("%s-IX%d", upper(city[:3]), i)
				break
			}
			name = ixpName(rng, facilityCities[rng.Intn(len(facilityCities))])
		}
		usedIXPNames[name] = true
		w.IXPs = append(w.IXPs, IXPSpec{Name: name, Country: w.Facilities[fac].Country, Facility: fac})
	}

	// ASes: unique ASNs and names; Zipf-like size distribution. Worlds
	// bigger than half the 2-byte-era ASN space draw from the full
	// 4-byte space so rejection sampling stays cheap.
	asnSpace := 399999
	if cfg.NumASes > asnSpace/2 {
		asnSpace = 4_000_000_000
	}
	usedNames := map[string]bool{}
	usedASNs := map[int64]bool{}
	for i := 0; i < cfg.NumASes; i++ {
		asn := int64(rng.Intn(asnSpace) + 1)
		for usedASNs[asn] {
			asn = int64(rng.Intn(asnSpace) + 1)
		}
		usedASNs[asn] = true
		name := operatorName(rng)
		for tries := 0; usedNames[name]; tries++ {
			if tries == nameRetries {
				// Natural operator names contain no digits.
				name = fmt.Sprintf("%s %d", operatorName(rng), i)
				break
			}
			name = operatorName(rng)
		}
		usedNames[name] = true
		w.ASes = append(w.ASes, ASSpec{
			ASN:     asn,
			Name:    name,
			OrgName: organizationName(rng, name),
			Country: pickWeightedCountry(rng),
		})
	}
	// Size ranking: index order is the rank (AS 0 biggest).
	for i := range w.ASes {
		w.ASes[i].SizeRank = i
	}

	// Prefix budget: Zipf share s(i) ∝ 1/(i+1)^0.9, minimum 1.
	var hsum float64
	for i := range w.ASes {
		hsum += 1 / math.Pow(float64(i+1), 0.9)
	}
	for i := range w.ASes {
		share := (1 / math.Pow(float64(i+1), 0.9)) / hsum
		n := int(share * float64(cfg.PrefixBudget))
		if n < 1 {
			n = 1
		}
		w.ASes[i].NumPrefixes = n
	}

	// Tags: bigger ASes are transit/tier-1 flavored, smaller are stubs.
	for i := range w.ASes {
		spec := &w.ASes[i]
		switch {
		case i < cfg.NumASes/50+1:
			spec.Tags = append(spec.Tags, "Tier-1", "Transit")
		case i < cfg.NumASes/8:
			spec.Tags = append(spec.Tags, "Transit", "ISP")
		case i < cfg.NumASes/3:
			spec.Tags = append(spec.Tags, "ISP", "Eyeball")
		default:
			spec.Tags = append(spec.Tags, "Stub")
		}
		if rng.Float64() < 0.15 {
			spec.Tags = append(spec.Tags, tagLabels[rng.Intn(len(tagLabels))])
		}
		spec.Tags = dedupeStrings(spec.Tags)
	}

	// Topology: each non-top AS picks 1-3 providers among bigger ASes
	// (preferential attachment towards the top), plus lateral peers.
	for i := 1; i < len(w.ASes); i++ {
		nProv := 1 + rng.Intn(3)
		seen := map[int]bool{}
		for p := 0; p < nProv; p++ {
			// Bias towards small indexes (big ASes).
			j := int(math.Floor(math.Pow(rng.Float64(), 2.2) * float64(i)))
			if j >= i {
				j = i - 1
			}
			if !seen[j] {
				seen[j] = true
				w.ASes[i].Providers = append(w.ASes[i].Providers, j)
			}
		}
		sort.Ints(w.ASes[i].Providers)
	}
	// Lateral peers among mid-size ASes.
	for i := range w.ASes {
		if rng.Float64() < 0.5 {
			j := rng.Intn(len(w.ASes))
			if j != i {
				w.ASes[i].Peers = append(w.ASes[i].Peers, j)
			}
		}
	}

	// IXP membership: top ASes join many IXPs, stubs few or none.
	for i := range w.ASes {
		nIXP := 0
		switch {
		case i < cfg.NumASes/50+1:
			nIXP = 4 + rng.Intn(5)
		case i < cfg.NumASes/8:
			nIXP = 2 + rng.Intn(3)
		case i < cfg.NumASes/3:
			nIXP = rng.Intn(2)
		default:
			if rng.Float64() < 0.1 {
				nIXP = 1
			}
		}
		seen := map[int]bool{}
		for k := 0; k < nIXP && len(w.IXPs) > 0; k++ {
			j := rng.Intn(len(w.IXPs))
			if !seen[j] {
				seen[j] = true
				w.ASes[i].IXPs = append(w.ASes[i].IXPs, j)
			}
		}
		sort.Ints(w.ASes[i].IXPs)
	}

	// Hegemony: each AS depends on its providers transitively; score
	// decays with provider rank.
	for i := 1; i < len(w.ASes); i++ {
		seen := map[int]bool{}
		for _, p := range w.ASes[i].Providers {
			if !seen[p] {
				seen[p] = true
				score := 0.35 + 0.6*rng.Float64()
				w.ASes[i].Hegemons = append(w.ASes[i].Hegemons, HegSpec{Upstream: p, Score: round3(score)})
			}
			// Grand-provider dependency with decayed score.
			for _, gp := range w.ASes[p].Providers {
				if !seen[gp] && rng.Float64() < 0.5 {
					seen[gp] = true
					w.ASes[i].Hegemons = append(w.ASes[i].Hegemons, HegSpec{Upstream: gp, Score: round3(0.05 + 0.3*rng.Float64())})
				}
			}
		}
		sort.Slice(w.ASes[i].Hegemons, func(a, b int) bool {
			return w.ASes[i].Hegemons[a].Upstream < w.ASes[i].Hegemons[b].Upstream
		})
	}

	// Population estimates: the biggest eyeball ASes per country carry
	// the population share.
	byCountry := map[string][]int{}
	for i := range w.ASes {
		byCountry[w.ASes[i].Country.Code] = append(byCountry[w.ASes[i].Country.Code], i)
	}
	// Sorted country order: the number of draws differs per country, so
	// ranging over the map would hand every later draw a different
	// stream from one build of a seed to the next.
	codes := make([]string, 0, len(byCountry))
	for code := range byCountry {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		remaining := 100.0
		for k, i := range byCountry[code] {
			if k >= 5 {
				break
			}
			share := remaining * (0.3 + 0.4*rng.Float64())
			if share < 0.5 {
				break
			}
			w.ASes[i].PopPercent = round1(share)
			remaining -= share
		}
	}

	// CAIDA-style rank: size order with mild noise.
	perm := rng.Perm(len(w.ASes))
	_ = perm
	for i := range w.ASes {
		w.ASes[i].CAIDARank = i + 1
	}

	// Domains: hosted preferentially on big content ASes.
	usedDomains := map[string]bool{}
	for d := 0; d < cfg.NumDomains; d++ {
		name := domainName(rng)
		for tries := 0; usedDomains[name]; tries++ {
			if tries == nameRetries {
				// Natural domains use 2-digit decorations at most.
				name = fmt.Sprintf("%s%d.%s", domainWords[rng.Intn(len(domainWords))], 100+d, domainTLDs[rng.Intn(len(domainTLDs))])
				break
			}
			name = domainName(rng)
		}
		usedDomains[name] = true
		host := int(math.Floor(math.Pow(rng.Float64(), 2.0) * float64(len(w.ASes))))
		if host >= len(w.ASes) {
			host = len(w.ASes) - 1
		}
		w.Domains = append(w.Domains, DomainSpec{Name: name, Rank: d + 1, HostAS: host})
	}

	// Countries in use, deterministic order.
	cset := map[string]CountryInfo{}
	for _, a := range w.ASes {
		cset[a.Country.Code] = a.Country
	}
	for _, x := range w.IXPs {
		cset[x.Country.Code] = x.Country
	}
	for _, f := range w.Facilities {
		cset[f.Country.Code] = f.Country
	}
	for _, c := range cset {
		w.Countries = append(w.Countries, c)
	}
	sort.Slice(w.Countries, func(i, j int) bool { return w.Countries[i].Code < w.Countries[j].Code })
	return w
}

func dedupeStrings(in []string) []string {
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func round3(f float64) float64 { return math.Round(f*1000) / 1000 }
func round1(f float64) float64 { return math.Round(f*10) / 10 }

// prefixFor deterministically derives the p-th prefix originated by the
// AS at index i: a documentation-style IPv4 CIDR for even p, IPv6 for
// every fourth.
func prefixFor(i, p int) (cidr string, af int) {
	if p%4 == 3 {
		return fmt.Sprintf("2001:db8:%x:%x::/48", i%65536, p%65536), 6
	}
	// 10.x.y.0/24-style private space keeps prefixes syntactically valid
	// and collision-free across (i, p) pairs under the defaults.
	a := (i*7 + p) % 224
	b := (i + p*13) % 256
	c := (i*3 + p*29) % 256
	return fmt.Sprintf("%d.%d.%d.0/24", a+1, b, c), 4
}

// overflowPrefix maps a serial number to a /24 in the 225.0.0.0+
// block, which prefixFor never emits (its first octet is ≤ 224): the
// collision-overflow space for benchmark-scale worlds. Injective for
// serial < 31*65536 ≈ 2M prefixes.
func overflowPrefix(serial int) (cidr string, af int) {
	return fmt.Sprintf("%d.%d.%d.0/24", 225+(serial/65536)%31, (serial/256)%256, serial%256), 4
}

// ipInPrefix derives the k-th address inside an IPv4 /24.
func ipInPrefix(cidr string, k int) string {
	var a, b, c, l int
	fmt.Sscanf(cidr, "%d.%d.%d.0/%d", &a, &b, &c, &l)
	return fmt.Sprintf("%d.%d.%d.%d", a, b, c, (k%250)+1)
}
