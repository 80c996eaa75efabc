package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// maxBlockDim bounds per-block allocation while scanning untrusted
// input; no plausible block has this many points, strings or bytes in
// one column.
const maxBlockDim = 1 << 26

// Scan streams a store file block by block, calling fn with each
// block's points in file order. Unlike Read it never materializes the
// whole point set: memory is bounded by the largest single block, which
// is what lets 10⁶-point surfaces stream through queries. fn returning
// an error stops the scan and returns that error.
func Scan(r io.Reader, fn func([]Point) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != Magic {
		return fmt.Errorf("store: not a measurement store (missing %q header)", Magic[:len(Magic)-1])
	}
	tag := make([]byte, len(blockTag))
	for {
		if _, err := io.ReadFull(br, tag); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("store: truncated block tag: %w", err)
		}
		if string(tag) != blockTag {
			return fmt.Errorf("store: corrupt block header %q", tag)
		}
		pts, err := readBlockFrom(br)
		if err != nil {
			return err
		}
		if err := fn(pts); err != nil {
			return err
		}
	}
}

// ScanFile streams the store at path through fn (see Scan).
func ScanFile(path string, fn func([]Point) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Scan(f, fn); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readBlockFrom parses one block body (the tag already consumed) from
// the buffered reader.
func readBlockFrom(br *bufio.Reader) ([]Point, error) {
	uvarint := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("store: truncated %s varint: %w", what, err)
		}
		return v, nil
	}
	nPoints, err := uvarint("point-count")
	if err != nil {
		return nil, err
	}
	nStrings, err := uvarint("string-count")
	if err != nil {
		return nil, err
	}
	if nPoints > maxBlockDim || nStrings > maxBlockDim {
		return nil, fmt.Errorf("store: implausible block counts (%d points, %d strings)", nPoints, nStrings)
	}
	dict := make([]string, nStrings)
	for i := range dict {
		n, err := uvarint("string-length")
		if err != nil {
			return nil, err
		}
		if n > maxBlockDim {
			return nil, fmt.Errorf("store: implausible dictionary string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("store: truncated dictionary string: %w", err)
		}
		dict[i] = string(buf)
	}
	nCols, err := uvarint("column-count")
	if err != nil {
		return nil, err
	}
	if nCols != numCols {
		return nil, fmt.Errorf("store: block has %d columns, format v1 has %d", nCols, numCols)
	}
	cols := make([][]uint64, numCols)
	var colBuf []byte
	for j := 0; j < numCols; j++ {
		byteLen, err := uvarint("column-length")
		if err != nil {
			return nil, err
		}
		if byteLen > maxBlockDim {
			return nil, fmt.Errorf("store: implausible column %d length %d", j, byteLen)
		}
		if uint64(cap(colBuf)) < byteLen {
			colBuf = make([]byte, byteLen)
		}
		buf := colBuf[:byteLen]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("store: truncated column %d: %w", j, err)
		}
		col := make([]uint64, 0, nPoints)
		pos := 0
		for pos < len(buf) {
			v, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("store: corrupt varint in column %d", j)
			}
			pos += n
			col = append(col, v)
		}
		if uint64(len(col)) != nPoints {
			return nil, fmt.Errorf("store: column %d has %d values, block has %d points", j, len(col), nPoints)
		}
		cols[j] = col
	}
	pts := make([]Point, nPoints)
	for i := range pts {
		var c [numCols]uint64
		for j := 0; j < numCols; j++ {
			c[j] = cols[j][i]
		}
		if c[0] >= uint64(len(dict)) || c[1] >= uint64(len(dict)) {
			return nil, fmt.Errorf("store: point %d references string %d/%d outside dictionary of %d", i, c[0], c[1], len(dict))
		}
		pts[i].Bench, pts[i].Config = dict[c[0]], dict[c[1]]
		pts[i].setCols(c)
	}
	return pts, nil
}

// QueryFile answers a query by streaming the store at path block by
// block instead of materializing the full point set: only the matched
// points plus the key set (for the total) are held, so memory scales
// with the answer, not the surface. Duplicate keys across blocks keep
// last-write-wins semantics; the result is byte-identical to
// Query(ReadFile(path), f).
func QueryFile(path string, f Filter) (*QueryResult, error) {
	finish, err := rank(f)
	if err != nil {
		return nil, err
	}
	keys := map[string]struct{}{}
	matchedIdx := map[string]int{}
	matched := make([]Point, 0, 64)
	err = ScanFile(path, func(pts []Point) error {
		for i := range pts {
			p := &pts[i]
			k := p.Key()
			keys[k] = struct{}{}
			// Match depends only on key fields, so every duplicate of a
			// key matches alike; overwriting keeps the last write.
			if !f.Match(p) {
				continue
			}
			if j, ok := matchedIdx[k]; ok {
				matched[j] = *p
				continue
			}
			matchedIdx[k] = len(matched)
			matched = append(matched, *p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(matched, func(i, j int) bool { return less(&matched[i], &matched[j]) })
	return finish(len(keys), matched), nil
}

// WriteQueryJSON streams a QueryResult as indented JSON, one point at a
// time, producing byte-for-byte the document a json.Encoder with
// two-space indentation produces — the byte-parity contract between
// repro -query and simd GET /v1/query — without ever marshaling the
// whole point list at once.
func WriteQueryJSON(w io.Writer, res *QueryResult) error {
	bw := bufio.NewWriterSize(w, 32<<10)
	filt, err := json.Marshal(res.Filter)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "{\n  \"filter\": %s,\n  \"total\": %d,\n  \"matched\": %d,\n  \"points\": ", filt, res.Total, res.Matched)
	switch {
	case res.Points == nil:
		bw.WriteString("null\n}\n")
	case len(res.Points) == 0:
		bw.WriteString("[]\n}\n")
	default:
		bw.WriteString("[\n")
		for i := range res.Points {
			// Element prefix "    " + indent "  " reproduces the nesting
			// depth the whole-document encoder gives array elements.
			raw, err := json.MarshalIndent(&res.Points[i], "    ", "  ")
			if err != nil {
				return err
			}
			bw.WriteString("    ")
			bw.Write(raw)
			if i < len(res.Points)-1 {
				bw.WriteByte(',')
			}
			bw.WriteByte('\n')
		}
		bw.WriteString("  ]\n}\n")
	}
	return bw.Flush()
}
