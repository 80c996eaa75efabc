package store

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Filter selects and orders points. The zero Filter matches everything
// in canonical order. Numeric fields use -1 as the "any" wildcard so 0
// (a valid wait-state and cache size) stays selectable; NewFilter
// returns a filter with every numeric field wild.
type Filter struct {
	Bench      string `json:"bench,omitempty"`
	Config     string `json:"config,omitempty"`
	BusBytes   int64  `json:"bus_bytes,omitempty"`
	WaitStates int64  `json:"wait_states,omitempty"`
	CacheKB    int64  `json:"cache_kb,omitempty"`

	// By orders matches descending by one metric: cycles, cpi, instrs,
	// size, ifetch, dmem (empty = canonical order).
	By string `json:"by,omitempty"`
	// Top keeps only the first N ordered matches (0 = all).
	Top int `json:"top,omitempty"`
}

// NewFilter returns a match-everything filter (numeric fields wild).
func NewFilter() Filter {
	return Filter{BusBytes: -1, WaitStates: -1, CacheKB: -1}
}

// sortMetrics maps each By identifier to its value extractor.
var sortMetrics = []struct {
	name string
	val  func(*Point) float64
}{
	{"cycles", func(p *Point) float64 { return float64(p.Cycles) }},
	{"cpi", (*Point).CPI},
	{"instrs", func(p *Point) float64 { return float64(p.Instrs) }},
	{"size", func(p *Point) float64 { return float64(p.SizeBytes) }},
	{"ifetch", func(p *Point) float64 { return float64(p.IFetchBytes) }},
	{"dmem", func(p *Point) float64 { return float64(p.DMemBytes) }},
}

// SortMetrics returns the valid Filter.By identifiers.
func SortMetrics() []string {
	out := make([]string, len(sortMetrics))
	for i, m := range sortMetrics {
		out[i] = m.name
	}
	return out
}

func metricByName(name string) func(*Point) float64 {
	for _, m := range sortMetrics {
		if m.name == name {
			return m.val
		}
	}
	return nil
}

// Match reports whether p passes the filter's selection fields.
// String fields match case-insensitively; empty string and -1 are
// wildcards.
func (f *Filter) Match(p *Point) bool {
	if f.Bench != "" && !strings.EqualFold(f.Bench, p.Bench) {
		return false
	}
	if f.Config != "" && !strings.EqualFold(f.Config, p.Config) {
		return false
	}
	if f.BusBytes >= 0 && f.BusBytes != 0 && f.BusBytes != p.BusBytes {
		return false
	}
	if f.WaitStates >= 0 && f.WaitStates != p.WaitStates {
		return false
	}
	if f.CacheKB >= 0 && f.CacheKB != p.CacheKB {
		return false
	}
	return true
}

// String renders the filter in the canonical query grammar (the form
// ParseFilter accepts), with wildcard fields omitted. Both repro -query
// and simd /v1/query echo this string, so equal filters always render
// equally.
func (f *Filter) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if f.Bench != "" {
		add("bench", f.Bench)
	}
	if f.Config != "" {
		add("config", f.Config)
	}
	if f.BusBytes > 0 {
		add("bus", strconv.FormatInt(f.BusBytes, 10))
	}
	if f.WaitStates >= 0 {
		add("waits", strconv.FormatInt(f.WaitStates, 10))
	}
	if f.CacheKB >= 0 {
		add("cachekb", strconv.FormatInt(f.CacheKB, 10))
	}
	if f.By != "" {
		add("by", f.By)
	}
	if f.Top > 0 {
		add("top", strconv.Itoa(f.Top))
	}
	return strings.Join(parts, " ")
}

// ParseFilter parses the query grammar: whitespace- or comma-separated
// key=value terms. Keys: bench, config (alias isa), bus, waits,
// cachekb, by, top. Example:
//
//	bench=queens config=D16/16/2 bus=4 waits=2 by=cycles top=10
func ParseFilter(s string) (Filter, error) {
	f := NewFilter()
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == ','
	})
	for _, term := range fields {
		k, v, ok := strings.Cut(term, "=")
		if !ok || v == "" {
			return f, fmt.Errorf("store: bad filter term %q (want key=value)", term)
		}
		num := func() (int64, error) {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("store: filter %s=%q: want a non-negative integer", k, v)
			}
			return n, nil
		}
		var err error
		switch strings.ToLower(k) {
		case "bench":
			f.Bench = v
		case "config", "isa":
			f.Config = v
		case "bus":
			f.BusBytes, err = num()
		case "waits":
			f.WaitStates, err = num()
		case "cachekb":
			f.CacheKB, err = num()
		case "by":
			if metricByName(v) == nil {
				return f, fmt.Errorf("store: filter by=%q: valid metrics: %s",
					v, strings.Join(SortMetrics(), ", "))
			}
			f.By = v
		case "top":
			var n int64
			if n, err = num(); err == nil {
				if n == 0 {
					return f, fmt.Errorf("store: filter top=%q: top must be a positive integer", v)
				}
				f.Top = int(n)
			}
		default:
			return f, fmt.Errorf("store: unknown filter key %q (valid: bench, config, bus, waits, cachekb, by, top)", k)
		}
		if err != nil {
			return f, err
		}
	}
	return f, nil
}

// QueryResult is the shared result document of repro -query and simd
// GET /v1/query: both marshal it with two-space indentation, so the CLI
// and the service return byte-identical answers for the same store and
// filter.
type QueryResult struct {
	Filter  string  `json:"filter"`
	Total   int     `json:"total"`
	Matched int     `json:"matched"`
	Points  []Point `json:"points"`
}

// Query canonicalizes pts (dedupe + sort), applies the filter, orders
// by the By metric (descending, canonical key as the tie-break) and
// truncates to Top.
func Query(pts []Point, f Filter) (*QueryResult, error) {
	finish, err := rank(f)
	if err != nil {
		return nil, err
	}
	canon := Canon(pts)
	matched := make([]Point, 0, len(canon))
	for i := range canon {
		if f.Match(&canon[i]) {
			matched = append(matched, canon[i])
		}
	}
	return finish(len(canon), matched), nil
}

// rank validates f.By and returns the tail shared by Query and
// QueryFile: it orders the matched points by the By metric
// (descending, canonical key as the tie-break), truncates them to Top
// and wraps them with the surface's total.
func rank(f Filter) (func(total int, matched []Point) *QueryResult, error) {
	var metric func(*Point) float64
	if f.By != "" {
		if metric = metricByName(f.By); metric == nil {
			return nil, fmt.Errorf("store: unknown sort metric %q (valid: %s)",
				f.By, strings.Join(SortMetrics(), ", "))
		}
	}
	return func(total int, matched []Point) *QueryResult {
		res := &QueryResult{Filter: f.String(), Total: total, Matched: len(matched)}
		if metric != nil {
			sort.SliceStable(matched, func(i, j int) bool {
				vi, vj := metric(&matched[i]), metric(&matched[j])
				if vi != vj {
					return vi > vj
				}
				return less(&matched[i], &matched[j])
			})
		}
		if f.Top > 0 && len(matched) > f.Top {
			matched = matched[:f.Top]
		}
		res.Points = matched
		return res
	}, nil
}
