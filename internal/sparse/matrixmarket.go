package sparse

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/pastix-go/pastix/internal/blas"
)

// Matrix Market exchange format (coordinate, real/integer/pattern/complex,
// symmetric). This is the format most modern sparse collections (SuiteSparse)
// distribute, complementing the Harwell-Boeing RSA reader the paper's
// problems used. The readers parse untrusted input (the serving tier feeds
// request bodies straight in): every size is checked before it is used and
// the header's entry count never sizes a buffer beyond a small cap.

// ReadMatrixMarket parses a symmetric coordinate Matrix Market stream.
// General (non-symmetric header) inputs are accepted only if they are
// numerically symmetric; pattern matrices get unit diagonals and -1/deg
// off-diagonals to stay SPD-friendly.
func ReadMatrixMarket(r io.Reader) (*SymMatrix, error) {
	br := bufio.NewReader(r)
	h, err := readMMHeader(br)
	if err != nil {
		return nil, err
	}
	switch h.valtype {
	case "real", "integer":
		return readMMBody(br, h, 1, func(f []string) (float64, error) {
			return strconv.ParseFloat(f[0], 64)
		})
	case "pattern":
		// Pattern-only: synthesize a diagonally dominant SPD matrix on the
		// given structure so the result is factorizable.
		a, err := readMMBody(br, h, 0, func([]string) (float64, error) { return 1, nil })
		if err != nil {
			return nil, err
		}
		fillDominant(a)
		return a, nil
	}
	return nil, fmt.Errorf("sparse: unsupported value type %q", h.valtype)
}

// ReadMatrixMarketComplex parses a complex symmetric coordinate Matrix
// Market stream (entries: i j re im). As for the real reader, a general
// header is accepted only for numerically symmetric data.
func ReadMatrixMarketComplex(r io.Reader) (*ZSymMatrix, error) {
	br := bufio.NewReader(r)
	h, err := readMMHeader(br)
	if err != nil {
		return nil, err
	}
	if h.valtype != "complex" {
		return nil, fmt.Errorf("sparse: want complex MatrixMarket values, got %q", h.valtype)
	}
	return readMMBody(br, h, 2, func(f []string) (complex128, error) {
		re, err1 := strconv.ParseFloat(f[0], 64)
		im, err2 := strconv.ParseFloat(f[1], 64)
		return complex(re, im), errors.Join(err1, err2)
	})
}

// mmHeader is the banner and size line of a coordinate Matrix Market stream.
type mmHeader struct {
	valtype, symmetry string
	n, nnz            int
}

// readMMHeader parses the banner and the size line, leaving br at the first
// entry. The sizes are untrusted: a non-square, empty or negative size, or
// one too large to index, is rejected. So is an order above 2·nnz: the
// stored entries touch at most 2·nnz rows, so such a matrix has a row with
// no entry (singular with values, an uncoupled unit row as a pattern), and
// rejecting it bounds the reader's O(order) allocations by the body size.
func readMMHeader(br *bufio.Reader) (mmHeader, error) {
	var h mmHeader
	banner, err := br.ReadString('\n')
	if err != nil {
		return h, fmt.Errorf("sparse: mm header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(banner))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return h, fmt.Errorf("sparse: not a MatrixMarket file: %q", strings.TrimSpace(banner))
	}
	if fields[2] != "coordinate" {
		return h, fmt.Errorf("sparse: only coordinate format supported, got %q", fields[2])
	}
	h.valtype, h.symmetry = fields[3], fields[4]
	if h.symmetry != "symmetric" && h.symmetry != "general" {
		return h, fmt.Errorf("sparse: unsupported symmetry %q", h.symmetry)
	}
	sizeLine, err := nextDataLine(br)
	if err != nil {
		return h, fmt.Errorf("sparse: mm size line missing: %w", err)
	}
	sf := strings.Fields(sizeLine)
	if len(sf) != 3 {
		return h, fmt.Errorf("sparse: bad mm size line %q", sizeLine)
	}
	nrow, err1 := strconv.Atoi(sf[0])
	ncol, err2 := strconv.Atoi(sf[1])
	nnz, err3 := strconv.Atoi(sf[2])
	if err1 != nil || err2 != nil || err3 != nil || nrow != ncol ||
		nrow <= 0 || nrow > math.MaxInt32 || nnz < 0 || nnz > math.MaxInt32 || nrow > 2*nnz {
		return h, fmt.Errorf("sparse: bad mm dimensions %q", sizeLine)
	}
	h.n, h.nnz = nrow, nnz
	return h, nil
}

// nextDataLine returns the next line that is neither blank nor a comment.
func nextDataLine(br *bufio.Reader) (string, error) {
	for {
		line, err := br.ReadString('\n')
		if trimmed := strings.TrimSpace(line); trimmed != "" && !strings.HasPrefix(trimmed, "%") {
			return trimmed, nil
		}
		if err != nil {
			return "", err
		}
	}
}

// readMMBody reads the h.nnz entries — two 1-based indices followed by
// nvals value fields that value parses — and assembles the matrix. With a
// general header every off-diagonal entry must have its mirror with the
// same value; the lower triangle is kept.
func readMMBody[T blas.Scalar](br *bufio.Reader, h mmHeader, nvals int, value func(f []string) (T, error)) (*Sym[T], error) {
	type entry struct {
		i, j int
		v    T
	}
	// h.nnz is untrusted: it is only a capacity hint, capped so that a lying
	// header cannot force a large allocation.
	entries := make([]entry, 0, min(h.nnz, 1<<16))
	for len(entries) < h.nnz {
		line, err := nextDataLine(br)
		if err != nil {
			return nil, fmt.Errorf("sparse: mm data truncated after %d of %d entries", len(entries), h.nnz)
		}
		f := strings.Fields(line)
		if len(f) < 2+nvals {
			return nil, fmt.Errorf("sparse: bad mm entry %q", line)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || i < 1 || j < 1 || i > h.n || j > h.n {
			return nil, fmt.Errorf("sparse: bad mm indices %q", line)
		}
		v, err := value(f[2 : 2+nvals])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad mm value %q", line)
		}
		entries = append(entries, entry{i - 1, j - 1, v})
	}

	b := NewSymBuilder[T](h.n)
	if h.symmetry == "general" {
		// Must be numerically symmetric; verify pairs.
		vals := make(map[[2]int]T, len(entries))
		for _, e := range entries {
			vals[[2]int{e.i, e.j}] = e.v
		}
		for _, e := range entries {
			if w, ok := vals[[2]int{e.j, e.i}]; e.i != e.j && (!ok || w != e.v) {
				return nil, fmt.Errorf("sparse: general mm matrix is not symmetric at (%d,%d)", e.i+1, e.j+1)
			}
		}
	}
	for _, e := range entries {
		if h.symmetry != "general" || e.i >= e.j { // general: the upper triangle is the mirror
			b.Add(e.i, e.j, e.v)
		}
	}
	return b.Build(), nil
}

// WriteMatrixMarket writes the matrix in symmetric coordinate format.
func WriteMatrixMarket(w io.Writer, a *SymMatrix, comment string) error {
	return writeMM(w, a, comment, "real", func(w io.Writer, i, j int, v float64) {
		fmt.Fprintf(w, "%d %d %.17g\n", i, j, v)
	})
}

// WriteMatrixMarketComplex writes the matrix in complex symmetric coordinate
// format.
func WriteMatrixMarketComplex(w io.Writer, a *ZSymMatrix, comment string) error {
	return writeMM(w, a, comment, "complex", func(w io.Writer, i, j int, v complex128) {
		fmt.Fprintf(w, "%d %d %.17g %.17g\n", i, j, real(v), imag(v))
	})
}

// writeMM writes the banner, comment and size line, then one line per
// stored entry through entry (1-based indices).
func writeMM[T blas.Scalar](w io.Writer, a *Sym[T], comment, valtype string, entry func(w io.Writer, i, j int, v T)) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s symmetric\n", valtype)
	if comment != "" {
		for _, line := range strings.Split(comment, "\n") {
			fmt.Fprintf(bw, "%% %s\n", line)
		}
	}
	fmt.Fprintf(bw, "%d %d %d\n", a.N, a.N, a.NNZ())
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			entry(bw, a.RowIdx[p]+1, j+1, a.Val[p])
		}
	}
	return bw.Flush()
}
