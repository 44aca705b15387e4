// Package gio reads and writes graphs in two formats:
//
//   - Edge-list text ("src dst" per line, '#' comments, blank lines ignored)
//     — the format the paper's datasets (SNAP/KONECT dumps) ship in, so a
//     user with the real Twitter/Friendster files can feed them in directly.
//   - A compact little-endian binary format (magic "BPG1") storing the CSR
//     degree and target arrays, used by cmd/gengraph to cache synthetic
//     datasets between experiment runs.
package gio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"bpart/internal/graph"
)

const binaryMagic = "BPG1"

// WriteEdgeList writes g as "src dst" lines.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# bpart edge list: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var err error
	g.Edges(func(e graph.Edge) bool {
		_, err = fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEdgeList parses an edge-list text stream. Vertex IDs may be sparse;
// the graph is sized to max ID + 1. Lines starting with '#' or '%' are
// comments; fields may be separated by spaces or tabs.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	b := graph.NewBuilder(0)
	var srcs, dsts []graph.VertexID
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("gio: line %d: want 2 fields, got %q", lineNo, line)
		}
		s, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: bad src %q: %v", lineNo, fields[0], err)
		}
		d, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: bad dst %q: %v", lineNo, fields[1], err)
		}
		srcs = append(srcs, graph.VertexID(s))
		dsts = append(dsts, graph.VertexID(d))
		if int(s) > maxID {
			maxID = int(s)
		}
		if int(d) > maxID {
			maxID = int(d)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gio: scan: %w", err)
	}
	b.Grow(maxID + 1)
	b.Reserve(len(srcs))
	for i := range srcs {
		b.AddEdge(srcs[i], dsts[i])
	}
	return b.Build(), nil
}

// WriteBinary writes g in the compact binary format.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	n, m := g.NumVertices(), g.NumEdges()
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for v := 0; v < n; v++ {
		binary.LittleEndian.PutUint32(buf, uint32(g.OutDegree(graph.VertexID(v))))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	var err error
	g.Edges(func(e graph.Edge) bool {
		binary.LittleEndian.PutUint32(buf, e.Dst)
		_, err = bw.Write(buf)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary parses the compact binary format.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("gio: magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("gio: bad magic %q, want %q", magic, binaryMagic)
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("gio: header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:])
	m := binary.LittleEndian.Uint64(hdr[8:])
	const maxReasonable = 1 << 31
	if n > maxReasonable || m > maxReasonable {
		return nil, fmt.Errorf("gio: implausible sizes n=%d m=%d", n, m)
	}
	// Grow incrementally instead of trusting the header's n: a forged
	// header must be backed by actual stream bytes before memory is
	// committed (found by FuzzReadBinary).
	degrees := make([]uint32, 0, minU64(n, 1<<20))
	buf := make([]byte, 4)
	for v := uint64(0); v < n; v++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("gio: degree of %d: %w", v, err)
		}
		degrees = append(degrees, binary.LittleEndian.Uint32(buf))
	}
	var sum uint64
	for _, d := range degrees {
		sum += uint64(d)
	}
	if sum != m {
		return nil, fmt.Errorf("gio: degree sum %d != edge count %d", sum, m)
	}
	b := graph.NewBuilder(int(n))
	for v, d := range degrees {
		for i := uint32(0); i < d; i++ {
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("gio: targets of %d: %w", v, err)
			}
			dst := binary.LittleEndian.Uint32(buf)
			if uint64(dst) >= n {
				return nil, fmt.Errorf("gio: target %d out of range [0,%d)", dst, n)
			}
			b.AddEdge(graph.VertexID(v), dst)
		}
	}
	return b.Build(), nil
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// WriteFile writes g to path, choosing the format by extension:
// ".bg" binary, anything else edge-list text; a trailing ".gz" adds gzip
// compression (e.g. "graph.el.gz", "graph.bg.gz" — SNAP/KONECT dumps ship
// gzipped).
func WriteFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	inner := path
	var gz *gzip.Writer
	if filepath.Ext(path) == ".gz" {
		gz = gzip.NewWriter(f)
		w = gz
		inner = strings.TrimSuffix(path, ".gz")
	}
	if filepath.Ext(inner) == ".bg" {
		err = WriteBinary(w, g)
	} else {
		err = WriteEdgeList(w, g)
	}
	if err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// ReadFile reads a graph from path, choosing the format by extension
// (".gz" suffix selects gzip decompression of the inner format).
func ReadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	inner := path
	if filepath.Ext(path) == ".gz" {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("gio: gzip: %w", err)
		}
		defer gz.Close()
		r = gz
		inner = strings.TrimSuffix(path, ".gz")
	}
	if filepath.Ext(inner) == ".bg" {
		return ReadBinary(r)
	}
	return ReadEdgeList(r)
}
