package column

import "math"

// ZoneMap records the min/max of one column within one segment, enabling
// early pruning of pages a predicate cannot match [19]. String bounds are
// truncated to zoneStrLen bytes, which keeps them conservative.
type ZoneMap struct {
	Typ    Type
	MinI64 int64
	MaxI64 int64
	MinF64 float64
	MaxF64 float64
	MinStr string
	MaxStr string
}

const zoneStrLen = 16

// BuildZoneMap computes the zone map of v. An empty vector yields a zone map
// that prunes everything.
func BuildZoneMap(v *Vector) ZoneMap {
	z := ZoneMap{Typ: v.Typ}
	switch v.Typ {
	case Int64:
		if len(v.I64) == 0 {
			z.MinI64, z.MaxI64 = math.MaxInt64, math.MinInt64
			return z
		}
		z.MinI64, z.MaxI64 = v.I64[0], v.I64[0]
		for _, x := range v.I64 {
			if x < z.MinI64 {
				z.MinI64 = x
			}
			if x > z.MaxI64 {
				z.MaxI64 = x
			}
		}
	case Float64:
		if len(v.F64) == 0 {
			z.MinF64, z.MaxF64 = math.MaxFloat64, -math.MaxFloat64
			return z
		}
		z.MinF64, z.MaxF64 = v.F64[0], v.F64[0]
		for _, x := range v.F64 {
			if x != x {
				// NaN is outside every order, and comparisons treat it as
				// equal to anything: no bounds may prune this segment.
				z.MinF64, z.MaxF64 = math.Inf(-1), math.Inf(1)
				return z
			}
			if x < z.MinF64 {
				z.MinF64 = x
			}
			if x > z.MaxF64 {
				z.MaxF64 = x
			}
		}
	default:
		if len(v.Str) == 0 {
			z.MinStr, z.MaxStr = "\xff", ""
			return z
		}
		minS, maxS := v.Str[0], v.Str[0]
		for _, s := range v.Str {
			if s < minS {
				minS = s
			}
			if s > maxS {
				maxS = s
			}
		}
		z.MinStr = truncMin(minS)
		z.MaxStr = truncMax(maxS)
	}
	return z
}

// truncMin truncates a lower bound (still a valid lower bound).
func truncMin(s string) string {
	if len(s) > zoneStrLen {
		return s[:zoneStrLen]
	}
	return s
}

// truncMax truncates an upper bound conservatively by padding with 0xFF so
// the truncated bound is not below any value it covers.
func truncMax(s string) string {
	if len(s) > zoneStrLen {
		return s[:zoneStrLen] + "\xff"
	}
	return s
}

// MayContainI64 reports whether any value in [lo, hi] could be present.
// An empty segment's zone map (inverted bounds) matches nothing.
func (z ZoneMap) MayContainI64(lo, hi int64) bool {
	return z.Typ == Int64 && z.MinI64 <= z.MaxI64 && hi >= z.MinI64 && lo <= z.MaxI64
}

// MayContainF64 reports whether any value in [lo, hi] could be present.
func (z ZoneMap) MayContainF64(lo, hi float64) bool {
	return z.Typ == Float64 && z.MinF64 <= z.MaxF64 && hi >= z.MinF64 && lo <= z.MaxF64
}

// MayContainStr reports whether any value in [lo, hi] could be present.
func (z ZoneMap) MayContainStr(lo, hi string) bool {
	return z.Typ == String && z.MinStr <= z.MaxStr && hi >= z.MinStr && lo <= z.MaxStr
}
