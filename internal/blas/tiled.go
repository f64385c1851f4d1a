package blas

// Cache-tiled variants of the update kernels. The straightforward
// column-axpy loops in blas.go stream the whole A panel once per column of
// C, which falls out of cache for large blocks; the tiled versions process C
// in column strips and A in row strips so the working set stays resident.
// GemmNDT dispatches to the tiled path above a size threshold.

const (
	tileM = 128 // rows of A / C per strip
	tileN = 64  // columns of C per strip
	// tiledThreshold is the m·n·k product above which tiling pays for the
	// extra loop overhead (determined with BenchmarkGemmTiled).
	tiledThreshold = 1 << 18
)

// gemmNDTTiled computes C -= A·diag(d)·Bᵀ by tiles.
func gemmNDTTiled[T Scalar](m, n, k int, a []T, lda int, d []T, b []T, ldb int, c []T, ldc int) {
	for j0 := 0; j0 < n; j0 += tileN {
		j1 := j0 + tileN
		if j1 > n {
			j1 = n
		}
		for i0 := 0; i0 < m; i0 += tileM {
			i1 := i0 + tileM
			if i1 > m {
				i1 = m
			}
			for j := j0; j < j1; j++ {
				cj := c[i0+j*ldc : i1+j*ldc]
				for l := 0; l < k; l++ {
					s := d[l] * b[j+l*ldb]
					if s == 0 {
						continue
					}
					axpy(-s, a[i0+l*lda:i1+l*lda], cj)
				}
			}
		}
	}
}

// GemmNDTAuto picks the plain or tiled kernel by problem size. The solver's
// contribution computations call this.
func GemmNDTAuto[T Scalar](m, n, k int, a []T, lda int, d []T, b []T, ldb int, c []T, ldc int) {
	if m*n*k >= tiledThreshold {
		gemmNDTTiled(m, n, k, a, lda, d, b, ldb, c, ldc)
		return
	}
	GemmNDT(m, n, k, a, lda, d, b, ldb, c, ldc)
}
