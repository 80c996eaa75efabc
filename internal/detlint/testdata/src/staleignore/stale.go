// Package staleignore is a detlint test fixture: one escape hatch that
// still excuses a finding and two that excuse nothing.
package staleignore

// Copy iterates a map; its escape hatch is in use.
func Copy(dst, src map[string]int) {
	for k, v := range src { //detlint:ignore rangemap map-to-map copy, order-free
		dst[k] = v
	}
}

// Sum ranges over a slice: the map it once excused is gone.
func Sum(xs []int) int {
	n := 0
	for _, x := range xs { //detlint:ignore rangemap commutative sum, order-free
		n += x
	}
	return n
}

//detlint:ignore timenow telemetry-only timing

// Zero reads no clock.
func Zero() int { return 0 }
