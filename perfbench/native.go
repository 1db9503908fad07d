package main

import "positdebug/internal/posit"

// Native Go ports of gemm and spec_milc, in float64 and in ⟨32,2⟩ posits
// through posit.Config32: the floor of the layer ladder. They follow the
// PCL sources in internal/workloads operation for operation, so their
// results must equal the interpreted programs' bit for bit.

var p32 = posit.Config32

type gemmF64 struct {
	n       int
	a, b, c []float64
}

func newGemmF64(n int) *gemmF64 {
	g := &gemmF64{n: n, a: make([]float64, n*n), b: make([]float64, n*n), c: make([]float64, n*n)}
	fn := float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.a[i*n+j] = float64((i*j+1)%n) / fn
			g.b[i*n+j] = float64((i*(j+1))%n) / fn
			g.c[i*n+j] = float64((i*(j+2))%n) / fn
		}
	}
	return g
}

// kernel performs n² + 3n³ floating-point operations.
func (g *gemmF64) kernel() {
	n, alpha, beta := g.n, 1.5, 1.2
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.c[i*n+j] *= beta
		}
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				g.c[i*n+j] = g.c[i*n+j] + alpha*g.a[i*n+k]*g.b[k*n+j]
			}
		}
	}
}

func (g *gemmF64) checksum() float64 {
	s := 0.0
	for _, v := range g.c {
		s += v
	}
	return s
}

type gemmP32 struct {
	n       int
	a, b, c []posit.Bits
}

func newGemmP32(n int) *gemmP32 {
	g := &gemmP32{n: n, a: make([]posit.Bits, n*n), b: make([]posit.Bits, n*n), c: make([]posit.Bits, n*n)}
	fn := p32.FromInt64(int64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.a[i*n+j] = p32.Div(p32.FromInt64(int64((i*j+1)%n)), fn)
			g.b[i*n+j] = p32.Div(p32.FromInt64(int64((i*(j+1))%n)), fn)
			g.c[i*n+j] = p32.Div(p32.FromInt64(int64((i*(j+2))%n)), fn)
		}
	}
	return g
}

// kernel performs n² + 3n³ posit operations.
func (g *gemmP32) kernel() {
	n := g.n
	alpha, beta := p32.FromFloat64(1.5), p32.FromFloat64(1.2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.c[i*n+j] = p32.Mul(g.c[i*n+j], beta)
		}
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				g.c[i*n+j] = p32.Add(g.c[i*n+j], p32.Mul(p32.Mul(alpha, g.a[i*n+k]), g.b[k*n+j]))
			}
		}
	}
}

func (g *gemmP32) checksum() posit.Bits {
	s := p32.Zero()
	for _, v := range g.c {
		s = p32.Add(s, v)
	}
	return s
}

func gemmOps(n int) float64 { return float64(n*n + 3*n*n*n) }

func nativeGemmF64(n int) float64 {
	g := newGemmF64(n)
	g.kernel()
	return g.checksum()
}

func nativeGemmP32(n int) posit.Bits {
	g := newGemmP32(n)
	g.kernel()
	return g.checksum()
}

func nativeMilcF64(n int) float64 {
	var mre, mim [9]float64
	for k := 0; k < 9; k++ {
		mre[k] = float64((k*5+1)%7)/7.0 - 0.4
		mim[k] = float64((k*3+2)%5)/5.0 - 0.4
	}
	vre := make([][3]float64, n)
	vim := make([][3]float64, n)
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			vre[i][c] = float64((i+c)%11) / 11.0
			vim[i][c] = float64((i*2+c)%13) / 13.0
		}
	}
	for step := 0; step < 4; step++ {
		for i := 0; i < n; i++ {
			var r, im [3]float64
			for c := 0; c < 3; c++ {
				for row := 0; row < 3; row++ {
					m := 3*row + c
					r[row] = r[row] + mre[m]*vre[i][c] - mim[m]*vim[i][c]
					im[row] = im[row] + mre[m]*vim[i][c] + mim[m]*vre[i][c]
				}
			}
			for row := 0; row < 3; row++ {
				vre[i][row] = r[row]*0.5 + vre[i][row]*0.5
				vim[i][row] = im[row]*0.5 + vim[i][row]*0.5
			}
		}
	}
	s := 0.0
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			s = s + vre[i][c]*vre[i][c] + vim[i][c]*vim[i][c]
		}
	}
	return s
}

func nativeMilcP32(n int) posit.Bits {
	lit := p32.FromFloat64
	var mre, mim [9]posit.Bits
	for k := 0; k < 9; k++ {
		mre[k] = p32.Sub(p32.Div(p32.FromInt64(int64((k*5+1)%7)), lit(7.0)), lit(0.4))
		mim[k] = p32.Sub(p32.Div(p32.FromInt64(int64((k*3+2)%5)), lit(5.0)), lit(0.4))
	}
	vre := make([][3]posit.Bits, n)
	vim := make([][3]posit.Bits, n)
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			vre[i][c] = p32.Div(p32.FromInt64(int64((i+c)%11)), lit(11.0))
			vim[i][c] = p32.Div(p32.FromInt64(int64((i*2+c)%13)), lit(13.0))
		}
	}
	half := lit(0.5)
	for step := 0; step < 4; step++ {
		for i := 0; i < n; i++ {
			var r, im [3]posit.Bits
			for c := 0; c < 3; c++ {
				for row := 0; row < 3; row++ {
					m := 3*row + c
					r[row] = p32.Sub(p32.Add(r[row], p32.Mul(mre[m], vre[i][c])), p32.Mul(mim[m], vim[i][c]))
					im[row] = p32.Add(p32.Add(im[row], p32.Mul(mre[m], vim[i][c])), p32.Mul(mim[m], vre[i][c]))
				}
			}
			for row := 0; row < 3; row++ {
				vre[i][row] = p32.Add(p32.Mul(r[row], half), p32.Mul(vre[i][row], half))
				vim[i][row] = p32.Add(p32.Mul(im[row], half), p32.Mul(vim[i][row], half))
			}
		}
	}
	s := p32.Zero()
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			s = p32.Add(p32.Add(s, p32.Mul(vre[i][c], vre[i][c])), p32.Mul(vim[i][c], vim[i][c]))
		}
	}
	return s
}
